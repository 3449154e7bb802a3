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
    /// `struct S { a: A, b: B }` with the field names.
    NamedStruct(Vec<String>),
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
    Named(Vec<String>),
}

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

/// Skips `#[...]` attribute pairs at the current position.
fn skip_attributes(iter: &mut TokenIter) {
    while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        iter.next();
        iter.next(); // the bracketed attribute group
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

/// Parses the field names of a `{ ... }` struct body or struct variant.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        skip_attributes(&mut iter);
        skip_visibility(&mut iter);
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(name) = tree else {
            panic!("serde shim: expected a field name, found {tree}");
        };
        fields.push(name.to_string());
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim: expected `:` after field name, found {other:?}"),
        }
        // Skip the type: consume until a comma outside all `<...>` nesting.
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
    fields
}

/// Counts the fields of a `( ... )` tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut angle_depth = 0i32;
    let mut count = 0usize;
    let mut in_field = false;
    let mut after_attr_marker = false;
    for tree in stream {
        match &tree {
            TokenTree::Punct(p) => match p.as_char() {
                '<' => {
                    angle_depth += 1;
                    in_field = true;
                }
                '>' => {
                    angle_depth -= 1;
                    in_field = true;
                }
                ',' if angle_depth == 0 => {
                    if in_field {
                        count += 1;
                    }
                    in_field = false;
                }
                '#' => after_attr_marker = true,
                _ => in_field = true,
            },
            TokenTree::Group(g)
                if g.delimiter() == Delimiter::Bracket && after_attr_marker && !in_field => {}
            _ => in_field = true,
        }
        if !matches!(&tree, TokenTree::Punct(p) if p.as_char() == '#') {
            after_attr_marker = false;
        }
    }
    if in_field {
        count += 1;
    }
    count
}

/// Parses the variants of an `enum { ... }` body.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        skip_attributes(&mut iter);
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

/// Parses the derive input down to the type name and its body shape.
fn parse_type(input: TokenStream) -> (String, Body) {
    let mut iter = input.into_iter().peekable();
    while let Some(tree) = iter.next() {
        match &tree {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                iter.next();
            }
            TokenTree::Ident(ident) => {
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
                return (name, body);
            }
            _ => {}
        }
    }
    panic!("serde shim: no struct/enum found in derive input");
}

// ---------------------------------------------------------------------------
// Serialize codegen
// ---------------------------------------------------------------------------

fn gen_serialize(name: &str, body: &Body) -> String {
    let body_code = match body {
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Body::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "::serde::Value::Object(::std::vec![{}])",
                entries.join(", ")
            )
        }
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
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value({f}))"
                    )
                })
                .collect();
            format!(
                "{enum_name}::{v} {{ {} }} => ::serde::variant_value(\"{v}\", \
                 ::serde::Value::Object(::std::vec![{}])),",
                fields.join(", "),
                entries.join(", ")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Deserialize codegen
// ---------------------------------------------------------------------------

fn gen_deserialize(name: &str, body: &Body) -> String {
    let body_code = match body {
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
        Body::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::expect_field(__fields, \"{f}\", \"{name}\")?"))
                .collect();
            format!(
                "{{ let __fields = ::serde::expect_object(__value, \"{name}\")?; \
                 ::std::result::Result::Ok({name} {{ {} }}) }}",
                inits.join(", ")
            )
        }
        Body::Enum(variants) => gen_deserialize_enum(name, variants),
    };
    let read_code = gen_read(name, body);
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
                let inits: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "{f}: ::serde::expect_field(__variant_fields, \"{f}\", \
                             \"{name}::{v}\")?"
                        )
                    })
                    .collect();
                data_arms.push_str(&format!(
                    "\"{v}\" => {{ let __variant_fields = \
                     ::serde::expect_object(__inner, \"{name}::{v}\")?; \
                     ::std::result::Result::Ok({name}::{v} {{ {} }}) }},",
                    inits.join(", ")
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

/// An expression building `path { .. }` from an object on the reader.
fn read_named(path: &str, fields: &[String]) -> String {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut __f_{f} = ::std::option::Option::None;"))
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| format!("\"{f}\" => __reader.field(&mut __f_{f}),"))
        .collect();
    let values: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::required(__f_{f}, \"{f}\", \"{path}\")?"))
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
    let (name, body) = parse_type(input);
    gen_serialize(&name, &body)
        .parse()
        .expect("serde shim: generated Serialize impl must parse")
}

/// Derives the shim's value-tree `Deserialize` for a concrete struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_type(input);
    gen_deserialize(&name, &body)
        .parse()
        .expect("serde shim: generated Deserialize impl must parse")
}
