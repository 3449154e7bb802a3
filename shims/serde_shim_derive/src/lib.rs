//! Offline stand-in for `serde_derive`.
//!
//! This build environment has no access to crates.io, so the real `serde` cannot
//! be vendored. These derives generate working field-by-field implementations of
//! the value-tree [`Serialize`]/[`Deserialize`] traits defined by the sibling
//! `serde` shim, using only the compiler's built-in `proc_macro` API (no `syn`,
//! no `quote`):
//!
//! * named structs map to JSON objects (field declaration order preserved);
//! * newtype structs serialise transparently as their inner value, larger tuple
//!   structs as arrays;
//! * enums follow serde's externally-tagged convention: unit variants become
//!   `"Variant"`, newtype variants `{"Variant": inner}`, tuple variants
//!   `{"Variant": [..]}` and struct variants `{"Variant": {..}}`.
//!
//! `Deserialize` also gets a `read` that decodes straight from JSON text with the
//! same rules as the tree decode: the first occurrence of a struct field wins,
//! later duplicates and unknown keys are skipped (still syntax-checked), a missing
//! field fails, unit variant tags are matched on the borrowed string, and an enum
//! written as an object must have exactly one entry.
//!
//! # Attributes
//!
//! Both derives read the same `#[serde(..)]` items, and both decodes honour them:
//!
//! * on a named field, `default` (a missing field decodes to `Default::default()`)
//!   or `default = "path"` (to `path()`); a present field still decodes normally,
//!   so `null` is not missing;
//! * on a named field, `skip_serializing_if = "path"`: the entry is left out of the
//!   object when `path(&field)` is true;
//! * on a named field, `skip`: the field is never written and never looked up, and
//!   decodes to its default;
//! * on a type, `post_decode = "path"`: `path(&mut value)` runs after either decode
//!   succeeds. This one is the shim's own; real serde would need `from = ".."`
//!   through a wire type.
//!
//! `default`, `skip_serializing_if` and `skip` are real serde's names with real
//! serde's meaning. Any other `#[serde(..)]` item, and any item on an enum variant
//! or a tuple field, fails the expansion with a message naming it: a misspelt
//! attribute must not silently change wire bytes.
//!
//! Limitations (checked at expansion time): the derived type must not have
//! generic parameters. That covers every type in this workspace.
//!
//! [`Serialize`]: ../serde/trait.Serialize.html
//! [`Deserialize`]: ../serde/trait.Deserialize.html

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// Shape of the type a derive was attached to.
enum Body {
    /// `struct S;`
    UnitStruct,
    /// `struct S(A, B);` with the field count.
    TupleStruct(usize),
    /// `struct S { a: A, b: B }`.
    NamedStruct(Vec<Field>),
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

/// One enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// A named field and what its `#[serde(..)]` attributes ask for.
struct Field {
    name: String,
    /// The function a missing field decodes to: from `default` or
    /// `default = "path"`, or implied by `skip`.
    default: Option<String>,
    /// `skip_serializing_if = "path"`: the entry is left out when `path(&field)`.
    skip_if: Option<String>,
    /// `skip`: never written, never read; always decodes to its default.
    skip: bool,
}

impl Field {
    /// The field's entry in a `path { .. }` literal, given `found`, an
    /// `Option<T>` expression for the field's value on the wire (not evaluated for
    /// a skipped field).
    fn init(&self, path: &str, found: &str) -> String {
        let f = &self.name;
        match &self.default {
            Some(default) if self.skip => format!("{f}: {default}()"),
            Some(default) => format!("{f}: {found}.unwrap_or_else({default})"),
            None => format!("{f}: ::serde::required({found}, \"{f}\", \"{path}\")?"),
        }
    }
}

/// One item of a `#[serde(..)]` attribute: `name` or `name = "value"`.
struct Attr {
    name: String,
    value: Option<String>,
}

impl Attr {
    fn unsupported(&self, on: &str) -> ! {
        let value = self
            .value
            .as_ref()
            .map_or(String::new(), |v| format!(" = \"{v}\""));
        panic!(
            "serde shim: unsupported attribute `#[serde({}{value})]` on {on}",
            self.name
        );
    }
}

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes the `#[...]` attributes at the current position and returns the items
/// of its `#[serde(..)]` ones; every other attribute is skipped.
fn take_attributes(iter: &mut TokenIter) -> Vec<Attr> {
    let mut attrs = Vec::new();
    while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        iter.next();
        let Some(TokenTree::Group(group)) = iter.next() else {
            panic!("serde shim: expected `[..]` after `#`");
        };
        let mut inner = group.stream().into_iter();
        if !matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(items)) = inner.next() else {
            panic!("serde shim: expected `#[serde(..)]`, found `#{group}`");
        };
        let mut items = items.stream().into_iter().peekable();
        while let Some(tree) = items.next() {
            let TokenTree::Ident(name) = tree else {
                panic!("serde shim: cannot parse `#{group}` at `{tree}`");
            };
            let mut value = None;
            if matches!(items.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                items.next();
                let literal = items.next().map(|t| t.to_string()).unwrap_or_default();
                let path = literal.strip_prefix('"').and_then(|l| l.strip_suffix('"'));
                let Some(path) = path else {
                    panic!("serde shim: `{name}` takes a string, found `{literal}`");
                };
                value = Some(path.to_string());
            }
            attrs.push(Attr {
                name: name.to_string(),
                value,
            });
            match items.next() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                Some(other) => panic!("serde shim: cannot parse `#{group}` at `{other}`"),
            }
        }
    }
    attrs
}

/// Rejects any `#[serde(..)]` item where the derive honours none.
fn no_attributes(iter: &mut TokenIter, on: &str) {
    if let Some(attr) = take_attributes(iter).first() {
        attr.unsupported(on);
    }
}

/// Skips `pub`, `pub(crate)`, `pub(super)`, … at the current position.
fn skip_visibility(iter: &mut TokenIter) {
    if matches!(iter.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        iter.next();
        if matches!(
            iter.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            iter.next();
        }
    }
}

/// Skips a field's type: consumes up to and including a comma outside all `<...>`
/// nesting.
fn skip_type(iter: &mut TokenIter) {
    let mut angle_depth = 0i32;
    for tree in iter.by_ref() {
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
    }
}

/// The function a `default` or `skip` field without a path decodes to.
const DEFAULT: &str = "::std::default::Default::default";

/// Parses the fields of a `{ ... }` struct body or struct variant.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        let attrs = take_attributes(&mut iter);
        skip_visibility(&mut iter);
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(name) = tree else {
            panic!("serde shim: expected a field name, found {tree}");
        };
        let mut field = Field {
            name: name.to_string(),
            default: None,
            skip_if: None,
            skip: false,
        };
        for attr in &attrs {
            match (attr.name.as_str(), &attr.value) {
                ("default", None) => field.default = Some(DEFAULT.to_string()),
                ("default", Some(path)) => field.default = Some(path.clone()),
                ("skip_serializing_if", Some(path)) => field.skip_if = Some(path.clone()),
                ("skip", None) => field.skip = true,
                _ => attr.unsupported(&format!("field `{}`", field.name)),
            }
        }
        if field.skip {
            field.default.get_or_insert_with(|| DEFAULT.to_string());
        }
        fields.push(field);
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim: expected `:` after field name, found {other:?}"),
        }
        skip_type(&mut iter);
    }
    fields
}

/// Counts the fields of a `( ... )` tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut iter = stream.into_iter().peekable();
    let mut count = 0;
    loop {
        no_attributes(&mut iter, "a tuple field");
        skip_visibility(&mut iter);
        if iter.peek().is_none() {
            return count;
        }
        count += 1;
        skip_type(&mut iter);
    }
}

/// Parses the variants of an `enum { ... }` body.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        no_attributes(&mut iter, "an enum variant");
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(name) = tree else {
            panic!("serde shim: expected a variant name, found {tree}");
        };
        let mut kind = VariantKind::Unit;
        if let Some(TokenTree::Group(group)) = iter.peek() {
            match group.delimiter() {
                Delimiter::Parenthesis => {
                    kind = VariantKind::Tuple(count_tuple_fields(group.stream()));
                }
                Delimiter::Brace => {
                    kind = VariantKind::Named(parse_named_fields(group.stream()));
                }
                _ => {}
            }
            if !matches!(kind, VariantKind::Unit) {
                iter.next();
            }
        }
        // Skip an optional `= discriminant`.
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            iter.next();
            while let Some(peeked) = iter.peek() {
                if matches!(peeked, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                iter.next();
            }
        }
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            iter.next();
        }
        variants.push(Variant {
            name: name.to_string(),
            kind,
        });
    }
    variants
}

/// A parsed derive input.
struct Input {
    name: String,
    body: Body,
    /// `#[serde(post_decode = "path")]`: `path(&mut value)` runs after both decodes.
    post_decode: Option<String>,
}

/// Parses the derive input down to the type name, its body shape and its container
/// attribute.
fn parse_type(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let mut post_decode = None;
    loop {
        for attr in take_attributes(&mut iter) {
            match (attr.name.as_str(), &attr.value) {
                ("post_decode", Some(path)) => post_decode = Some(path.clone()),
                _ => attr.unsupported("a type"),
            }
        }
        let Some(tree) = iter.next() else {
            panic!("serde shim: no struct/enum found in derive input");
        };
        let TokenTree::Ident(ident) = &tree else {
            continue;
        };
        let keyword = ident.to_string();
        if keyword != "struct" && keyword != "enum" {
            if keyword == "union" {
                panic!("serde shim: unions cannot be derived");
            }
            continue;
        }
        let name = match iter.next() {
            Some(TokenTree::Ident(name)) => name.to_string(),
            other => panic!("serde shim: expected a type name, found {other:?}"),
        };
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            panic!(
                "serde shim: generic type `{name}` is not supported by the \
                 offline derive stand-in"
            );
        }
        let body = match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                if keyword == "enum" {
                    Body::Enum(parse_variants(g.stream()))
                } else {
                    Body::NamedStruct(parse_named_fields(g.stream()))
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde shim: unexpected token after `{name}`: {other:?}"),
        };
        return Input {
            name,
            body,
            post_decode,
        };
    }
}

// ---------------------------------------------------------------------------
// Serialize codegen
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body_code = match &input.body {
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Body::NamedStruct(fields) => named_to_value(fields, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| serialize_variant_arm(name, v))
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body_code} }}\n\
         }}\n"
    )
}

/// An expression building the object of `fields` in declaration order; `access`
/// gives an expression borrowing a field.
fn named_to_value(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let entry = |f: &Field| {
        format!(
            "(::std::string::String::from(\"{}\"), ::serde::Serialize::to_value({}))",
            f.name,
            access(&f.name)
        )
    };
    let written: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    if written.iter().all(|f| f.skip_if.is_none()) {
        let entries: Vec<String> = written.iter().map(|f| entry(f)).collect();
        return format!(
            "::serde::Value::Object(::std::vec![{}])",
            entries.join(", ")
        );
    }
    let pushes: String = written
        .iter()
        .map(|f| {
            let push = format!("__entries.push({});", entry(f));
            match &f.skip_if {
                Some(path) => format!("if !{path}({}) {{ {push} }}", access(&f.name)),
                None => push,
            }
        })
        .collect();
    format!(
        "{{ let mut __entries = ::std::vec::Vec::with_capacity({}); {pushes} \
         ::serde::Value::Object(__entries) }}",
        written.len()
    )
}

fn serialize_variant_arm(enum_name: &str, variant: &Variant) -> String {
    let v = &variant.name;
    match &variant.kind {
        VariantKind::Unit => format!(
            "{enum_name}::{v} => \
             ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
        ),
        VariantKind::Tuple(1) => format!(
            "{enum_name}::{v}(__f0) => \
             ::serde::variant_value(\"{v}\", ::serde::Serialize::to_value(__f0)),"
        ),
        VariantKind::Tuple(n) => {
            let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            let items: Vec<String> = binders
                .iter()
                .map(|b| format!("::serde::Serialize::to_value({b})"))
                .collect();
            format!(
                "{enum_name}::{v}({}) => ::serde::variant_value(\"{v}\", \
                 ::serde::Value::Array(::std::vec![{}])),",
                binders.join(", "),
                items.join(", ")
            )
        }
        VariantKind::Named(fields) => {
            let mut binders: Vec<&str> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| f.name.as_str())
                .collect();
            if binders.len() < fields.len() {
                binders.push("..");
            }
            format!(
                "{enum_name}::{v} {{ {} }} => ::serde::variant_value(\"{v}\", {}),",
                binders.join(", "),
                named_to_value(fields, str::to_string)
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Deserialize codegen
// ---------------------------------------------------------------------------

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let mut body_code = match &input.body {
        Body::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))")
        }
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "{{ let __items = ::serde::expect_array(__value, \"{name}\", {n})?; \
                 ::std::result::Result::Ok({name}({})) }}",
                items.join(", ")
            )
        }
        Body::NamedStruct(fields) => format!(
            "::std::result::Result::Ok({})",
            named_from_value(name, fields, "__value")
        ),
        Body::Enum(variants) => gen_deserialize_enum(name, variants),
    };
    let mut read_code = gen_read(name, &input.body);
    if let Some(hook) = &input.post_decode {
        for code in [&mut body_code, &mut read_code] {
            *code = format!(
                "let mut __out: Self = {{ {code} }}?; {hook}(&mut __out); \
                 ::std::result::Result::Ok(__out)"
            );
        }
    }
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(__value: &::serde::Value) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body_code} }}\n\
             fn read(__reader: &mut ::serde::json::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {read_code} }}\n\
         }}\n"
    )
}

/// An expression building `path { .. }` from the object `source`.
fn named_from_value(path: &str, fields: &[Field], source: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let found = format!(
                "::serde::optional_field(__fields, \"{}\", \"{path}\")?",
                f.name
            );
            f.init(path, &found)
        })
        .collect();
    format!(
        "{{ let __fields = ::serde::expect_object({source}, \"{path}\")?; \
         {path} {{ {} }} }}",
        inits.join(", ")
    )
}

fn gen_deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut data_arms = String::new();
    for variant in variants {
        let v = &variant.name;
        match &variant.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!(
                    "\"{v}\" => ::std::result::Result::Ok({name}::{v}),"
                ));
            }
            VariantKind::Tuple(1) => {
                data_arms.push_str(&format!(
                    "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                     ::serde::Deserialize::from_value(__inner)?)),"
                ));
            }
            VariantKind::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                    .collect();
                data_arms.push_str(&format!(
                    "\"{v}\" => {{ let __items = \
                     ::serde::expect_array(__inner, \"{name}::{v}\", {n})?; \
                     ::std::result::Result::Ok({name}::{v}({})) }},",
                    items.join(", ")
                ));
            }
            VariantKind::Named(fields) => {
                data_arms.push_str(&format!(
                    "\"{v}\" => ::std::result::Result::Ok({}),",
                    named_from_value(&format!("{name}::{v}"), fields, "__inner")
                ));
            }
        }
    }
    format!(
        "match __value {{\
             ::serde::Value::Str(__tag) => match __tag.as_str() {{\
                 {unit_arms}\
                 __other => ::std::result::Result::Err(\
                     ::serde::Error::unknown_variant(__other, \"{name}\")),\
             }},\
             ::serde::Value::Object(__entries) if __entries.len() == 1 => {{\
                 let (__tag, __inner) = &__entries[0];\
                 match __tag.as_str() {{\
                     {data_arms}\
                     __other => ::std::result::Result::Err(\
                         ::serde::Error::unknown_variant(__other, \"{name}\")),\
                 }}\
             }}\
             __other => ::std::result::Result::Err(::serde::Error::invalid_type(\
                 \"a `{name}` variant tag\", __other)),\
         }}"
    )
}

// ---------------------------------------------------------------------------
// Streaming read codegen (`Deserialize::read`)
// ---------------------------------------------------------------------------

/// The body of `read`: a `Result<Self, Error>` expression over `__reader`.
fn gen_read(name: &str, body: &Body) -> String {
    match body {
        // The tree decode accepts any value for a unit struct.
        Body::UnitStruct => {
            format!("__reader.skip()?; ::std::result::Result::Ok({name})")
        }
        Body::TupleStruct(n) => {
            format!("::std::result::Result::Ok({})", read_tuple(name, *n))
        }
        Body::NamedStruct(fields) => {
            format!("::std::result::Result::Ok({})", read_named(name, fields))
        }
        Body::Enum(variants) => read_enum(name, variants),
    }
}

/// An expression building `path(..)` from the reader: a newtype reads its inner
/// value, any other tuple exactly `n` array elements.
fn read_tuple(path: &str, n: usize) -> String {
    if n == 1 {
        return format!("{path}(::serde::Deserialize::read(__reader)?)");
    }
    let slots: String = (0..n)
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;"))
        .collect();
    let arms: String = (0..n)
        .map(|i| {
            format!(
                "{i} => {{ __f{i} = ::std::option::Option::Some(\
                 ::serde::Deserialize::read(__reader)?); ::std::result::Result::Ok(()) }},"
            )
        })
        .collect();
    let values: Vec<String> = (0..n)
        .map(|i| format!("::serde::required(__f{i}, \"{i}\", \"{path}\")?"))
        .collect();
    format!(
        "{{ {slots} let mut __len = 0usize; \
         __reader.array(|__reader| {{ \
             __len += 1; \
             match __len - 1 {{ {arms} \
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                     \"expected {n} elements for `{path}`\")), }} }})?; \
         {path}({}) }}",
        values.join(", ")
    )
}

/// An expression building `path { .. }` from an object on the reader, with the
/// same defaults and skips as [`named_from_value`].
fn read_named(path: &str, fields: &[Field]) -> String {
    let read: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let slots: String = read
        .iter()
        .map(|f| format!("let mut __f_{} = ::std::option::Option::None;", f.name))
        .collect();
    let arms: String = read
        .iter()
        .map(|f| format!("\"{0}\" => __reader.field(&mut __f_{0}),", f.name))
        .collect();
    let values: Vec<String> = fields
        .iter()
        .map(|f| f.init(path, &format!("__f_{}", f.name)))
        .collect();
    format!(
        "{{ {slots} \
         __reader.object(|__reader, __key| match &*__key {{ {arms} _ => __reader.skip(), }})?; \
         {path} {{ {} }} }}",
        values.join(", ")
    )
}

/// `read` for an enum: a string is a unit tag, an object of one entry a data
/// variant.
fn read_enum(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut data_arms = String::new();
    for variant in variants {
        let v = &variant.name;
        let path = format!("{name}::{v}");
        match &variant.kind {
            VariantKind::Unit => {
                unit_arms.push_str(&format!("\"{v}\" => ::std::result::Result::Ok({path}),"));
            }
            VariantKind::Tuple(n) => {
                data_arms.push_str(&format!("\"{v}\" => {},", read_tuple(&path, *n)));
            }
            VariantKind::Named(fields) => {
                data_arms.push_str(&format!("\"{v}\" => {},", read_named(&path, fields)));
            }
        }
    }
    let unknown = format!("::serde::Error::unknown_variant(__other, \"{name}\")");
    // With no data variant, an object can only be an error; emitting the entry
    // loop anyway would leave its success path unreachable.
    let object_branch = if data_arms.is_empty() {
        format!(
            "{{ ::std::result::Result::Err(::serde::Error::custom(\
             \"expected a `{name}` variant tag\")) }}"
        )
    } else {
        format!(
            "{{ let mut __out = ::std::option::Option::None; \
             __reader.object(|__reader, __tag| {{ \
                 if __out.is_some() {{ \
                     return ::std::result::Result::Err(::serde::Error::custom(\
                         \"expected one entry for `{name}`\")); }} \
                 __out = ::std::option::Option::Some(match &*__tag {{ {data_arms} \
                     __other => return ::std::result::Result::Err({unknown}), }}); \
                 ::std::result::Result::Ok(()) }})?; \
             __out.ok_or_else(|| ::serde::Error::custom(\
                 \"expected one entry for `{name}`\")) }}"
        )
    };
    format!(
        "if __reader.peek() == ::std::option::Option::Some(b'\"') {{ \
             let __tag = __reader.string()?; \
             match &*__tag {{ {unit_arms} \
                 __other => ::std::result::Result::Err({unknown}), }} \
         }} else {object_branch}"
    )
}

/// Derives the shim's value-tree `Serialize` for a concrete struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    gen_serialize(&parse_type(input))
        .parse()
        .expect("serde shim: generated Serialize impl must parse")
}

/// Derives the shim's value-tree `Deserialize` for a concrete struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    gen_deserialize(&parse_type(input))
        .parse()
        .expect("serde shim: generated Deserialize impl must parse")
}
