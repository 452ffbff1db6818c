//! Offline stand-in for `serde_derive` (see `shims/README.md`).
//!
//! Upstream serde_derive builds on `syn`/`quote`; neither is available
//! offline, so this crate parses the item declaration directly from the raw
//! [`proc_macro::TokenStream`] and emits impl code as a string. It supports
//! exactly the shapes this workspace declares:
//!
//! - structs with named fields (plus unit and tuple structs),
//! - enums whose variants are unit, newtype or tuple,
//! - the `#[serde(default)]` and `#[serde(skip)]` field attributes.
//!
//! Anything else (generics, struct variants, other serde attributes) panics
//! at expansion time with a clear message rather than mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's tree-based `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives the shim's tree-based `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

// ------------------------------------------------------------------ parsing

struct Field {
    name: String,
    attrs: FieldAttrs,
}

/// The serde field attributes the shim honors.
#[derive(Default)]
struct FieldAttrs {
    /// `#[serde(default)]`: a missing key deserializes to `Default::default()`.
    default: bool,
    /// `#[serde(skip)]`: never serialized, always deserialized to
    /// `Default::default()`.
    skip: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

/// True when the attribute group body (the tokens inside `#[...]`) is a
/// `serde(...)` attribute; returns the tokens inside the parentheses.
fn serde_attr_args(tokens: &[TokenTree]) -> Option<Vec<TokenTree>> {
    match tokens {
        [TokenTree::Ident(name), TokenTree::Group(args)]
            if name.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            Some(args.stream().into_iter().collect())
        }
        _ => None,
    }
}

/// Consumes leading attributes at `i`, recording the serde ones in `attrs`.
/// Panics on serde attributes the shim cannot honor.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize, attrs: &mut FieldAttrs) {
    loop {
        match (tokens.get(*i), tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(args) = serde_attr_args(&inner) {
                    for a in &args {
                        match a {
                            TokenTree::Ident(id) if id.to_string() == "default" => {
                                attrs.default = true;
                            }
                            TokenTree::Ident(id) if id.to_string() == "skip" => {
                                attrs.skip = true;
                            }
                            TokenTree::Punct(p) if p.as_char() == ',' => {}
                            other => {
                                panic!("serde shim derive: unsupported serde attribute `{other}`")
                            }
                        }
                    }
                }
                *i += 2;
            }
            _ => return,
        }
    }
}

/// Consumes a visibility qualifier (`pub`, `pub(crate)`, ...) if present.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize, what: &str) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected {what}, found {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&tokens, &mut i, &mut FieldAttrs::default());
    skip_vis(&tokens, &mut i);
    let kw = expect_ident(&tokens, &mut i, "`struct` or `enum`");
    let name = expect_ident(&tokens, &mut i, "type name");
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let body = match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_top_level_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde shim derive: unexpected struct body {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: unexpected enum body {other:?}"),
        },
        other => panic!("serde shim derive: `{other}` items are not supported"),
    };
    Item { name, body }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut attrs = FieldAttrs::default();
        skip_attrs(&tokens, &mut i, &mut attrs);
        skip_vis(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i, "field name");
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { name, attrs });
    }
    fields
}

/// Advances past one type expression, stopping after the comma (if any) that
/// separates it from the next field. Tracks `<`/`>` nesting so commas inside
/// generic arguments don't terminate the field early.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while let Some(t) = tokens.get(*i) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut n = 1;
    let mut angle: i32 = 0;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => n += 1,
            _ => {}
        }
    }
    // A trailing comma would have over-counted by one.
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        n -= 1;
    }
    n
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i, &mut FieldAttrs::default());
        let name = expect_ident(&tokens, &mut i, "variant name");
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_top_level_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde shim derive: struct variant `{name}` is not supported")
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            while let Some(t) = tokens.get(i) {
                if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                i += 1;
            }
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// --------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let mut s = String::from("let mut m = ::serde::Map::new();\n");
            for f in fields.iter().filter(|f| !f.attrs.skip) {
                s.push_str(&format!(
                    "m.insert(::std::string::String::from(\"{0}\"), \
                     ::serde::Serialize::to_value(&self.{0}));\n",
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(m)");
            s
        }
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::String(\
                         ::std::string::String::from(\"{vname}\")),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(x0) => {{\
                         let mut m = ::serde::Map::new();\
                         m.insert(::std::string::String::from(\"{vname}\"), \
                         ::serde::Serialize::to_value(x0));\
                         ::serde::Value::Object(m) }},\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..n).map(|k| format!("x{k}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\
                             let mut m = ::serde::Map::new();\
                             m.insert(::std::string::String::from(\"{vname}\"), \
                             ::serde::Value::Array(vec![{}]));\
                             ::serde::Value::Object(m) }},\n",
                            binds.join(", "),
                            vals.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let mut s = format!(
                "let obj = v.as_object().ok_or_else(|| ::serde::Error::custom(\
                 format!(\"expected object for {name}, got {{}}\", v.type_name())))?;\n\
                 ::std::result::Result::Ok({name} {{\n"
            );
            for f in fields {
                if f.attrs.skip {
                    s.push_str(&format!(
                        "{}: ::std::default::Default::default(),\n",
                        f.name
                    ));
                    continue;
                }
                let missing = if f.attrs.default {
                    "::std::default::Default::default()".to_string()
                } else {
                    format!(
                        "return ::std::result::Result::Err(::serde::Error::custom(\
                         \"missing field `{}` for {name}\"))",
                        f.name
                    )
                };
                s.push_str(&format!(
                    "{0}: match obj.get(\"{0}\") {{\
                     ::std::option::Option::Some(x) => ::serde::Deserialize::from_value(x)?,\
                     ::std::option::Option::None => {missing},\
                     }},\n",
                    f.name
                ));
            }
            s.push_str("})");
            s
        }
        Body::UnitStruct => format!(
            "if v.is_null() {{ ::std::result::Result::Ok({name}) }} else {{\
             ::std::result::Result::Err(::serde::Error::custom(\"expected null for {name}\")) }}"
        ),
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Body::TupleStruct(n) => {
            let mut s = format!(
                "let a = v.as_array().ok_or_else(|| ::serde::Error::custom(\
                 format!(\"expected array for {name}, got {{}}\", v.type_name())))?;\n\
                 if a.len() != {n} {{ return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"wrong tuple arity for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}("
            );
            for k in 0..*n {
                s.push_str(&format!("::serde::Deserialize::from_value(&a[{k}])?, "));
            }
            s.push_str("))");
            s
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantKind::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::from_value(x)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let mut fields = String::new();
                        for k in 0..n {
                            fields
                                .push_str(&format!("::serde::Deserialize::from_value(&a[{k}])?, "));
                        }
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{\
                             let a = x.as_array().ok_or_else(|| ::serde::Error::custom(\
                             \"expected array payload for {name}::{vname}\"))?;\
                             if a.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::Error::custom(\"wrong arity for {name}::{vname}\")); }}\
                             ::std::result::Result::Ok({name}::{vname}({fields})) }},\n"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::String(s) => match s.as_str() {{\n{unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown variant `{{other}}` for {name}\"))),\n}},\n\
                 ::serde::Value::Object(m) if m.len() == 1 => {{\n\
                 let (k, x) = (&m.entries()[0].0, &m.entries()[0].1);\n\
                 match k.as_str() {{\n{data_arms}\
                 other => ::std::result::Result::Err(::serde::Error::custom(\
                 format!(\"unknown variant `{{other}}` for {name}\"))),\n}}\n}},\n\
                 other => ::std::result::Result::Err(::serde::Error::custom(\
                 format!(\"expected variant of {name}, got {{}}\", other.type_name()))),\n}}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
