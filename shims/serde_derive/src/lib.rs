//! Offline stand-in for `serde_derive` (see `shims/README.md`).
//!
//! Upstream serde_derive builds on `syn`/`quote`; neither is available
//! offline, so this crate parses the item declaration directly from the raw
//! [`proc_macro::TokenStream`] and emits impl code as a string. It supports
//! exactly the shapes this workspace writes:
//!
//! - structs with named fields, and newtype structs,
//! - enums whose variants are all units,
//! - the `#[serde(skip)]` field attribute.
//!
//! Anything else (generics, other tuple structs, variants carrying data,
//! explicit discriminants, other serde attributes) panics at expansion time
//! with a clear message rather than mis-serializing. There is no derive for
//! reading: the workspace writes JSON and never reads it back into a typed
//! value.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's tree-based `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

// ------------------------------------------------------------------ parsing

struct Field {
    name: String,
    /// `#[serde(skip)]`: the field is left out of the rendered object.
    skip: bool,
}

enum Body {
    NamedStruct(Vec<Field>),
    /// A one-field tuple struct, written as its field.
    Newtype,
    /// The names of a unit-only enum's variants.
    Enum(Vec<String>),
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

/// Consumes leading attributes at `i` and returns whether one of them was
/// `#[serde(skip)]`. Panics on serde attributes the shim cannot honor.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut skip = false;
    loop {
        match (tokens.get(*i), tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(args) = serde_attr_args(&inner) {
                    for a in &args {
                        match a {
                            TokenTree::Ident(id) if id.to_string() == "skip" => skip = true,
                            TokenTree::Punct(p) if p.as_char() == ',' => {}
                            other => {
                                panic!("serde shim derive: unsupported serde attribute `{other}`")
                            }
                        }
                    }
                }
                *i += 2;
            }
            _ => return skip,
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
    skip_attrs(&tokens, &mut i);
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
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis && is_one_field(g.stream()) =>
            {
                Body::Newtype
            }
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
        let skip = skip_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i, "field name");
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { name, skip });
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

/// True when a tuple struct's field list holds one field: no comma outside
/// generic arguments, bar a trailing one.
fn is_one_field(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    skip_type(&tokens, &mut i);
    !tokens.is_empty() && i == tokens.len()
}

fn parse_variants(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i, "variant name");
        match tokens.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(_) => panic!("serde shim derive: variant `{name}` is not a bare unit"),
        }
        variants.push(name);
    }
    variants
}

// --------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let mut s = String::from("let mut m = ::serde::Map::new();\n");
            for f in fields.iter().filter(|f| !f.skip) {
                s.push_str(&format!(
                    "m.insert(::std::string::String::from(\"{0}\"), \
                     ::serde::Serialize::to_value(&self.{0}));\n",
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(m)");
            s
        }
        Body::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&format!(
                    "{name}::{v} => ::serde::Value::String(::std::string::String::from(\"{v}\")),\n"
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}
