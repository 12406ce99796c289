//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no syn, no quote: neither is in the container).
//!
//! It derives the JSON-only `Serialize` / `Deserialize` of the `serde`
//! stand-in for the shapes this repository has: structs with named
//! fields, tuple and unit structs, and enums of unit, tuple and struct
//! variants, none of them generic. `#[serde(default)]` on a field is the
//! one attribute understood; any other `#[serde(..)]` is a compile error
//! rather than a silent difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<Variant> },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(message) => format!("compile_error!({message:?});"),
    };
    code.parse().expect("the derive generates valid Rust")
}

// ---- parsing ------------------------------------------------------------

/// Consume leading attributes; report whether `#[serde(default)]` was one.
fn take_attributes(tokens: &[TokenTree], pos: &mut usize) -> Result<bool, String> {
    let mut default = false;
    while let Some(TokenTree::Punct(p)) = tokens.get(*pos) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(attr)) = tokens.get(*pos + 1) else {
            return Err("malformed attribute".into());
        };
        let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
        if let [TokenTree::Ident(name), TokenTree::Group(args)] = inner.as_slice() {
            if name.to_string() == "serde" {
                let args = args.stream().to_string();
                if args.trim() != "default" {
                    return Err(format!("the offline serde stand-in does not support #[serde({args})]"));
                }
                default = true;
            }
        }
        *pos += 2;
    }
    Ok(default)
}

fn take_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
            *pos += 1;
        }
    }
}

/// Advance past one type (or discriminant), to the comma that ends it.
fn skip_to_comma(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle = 0usize;
    while let Some(token) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle = angle.saturating_sub(1),
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let default = take_attributes(&tokens, &mut pos)?;
        take_visibility(&tokens, &mut pos);
        let Some(TokenTree::Ident(name)) = tokens.get(pos) else {
            return Err("expected a field name".into());
        };
        let name = name.to_string();
        pos += 1;
        if !matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_to_comma(&tokens, &mut pos);
        pos += 1;
        fields.push(Field { name: name.trim_start_matches("r#").to_owned(), default });
    }
    Ok(fields)
}

fn tuple_arity(stream: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut arity = 0;
    let mut pos = 0;
    while pos < tokens.len() {
        if take_attributes(&tokens, &mut pos)? {
            return Err("#[serde(default)] is supported on named fields only".into());
        }
        take_visibility(&tokens, &mut pos);
        skip_to_comma(&tokens, &mut pos);
        pos += 1;
        arity += 1;
    }
    Ok(arity)
}

fn shape_of(token: Option<&TokenTree>) -> Result<Option<Shape>, String> {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Some(Shape::Named(named_fields(g.stream())?))),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Some(Shape::Tuple(tuple_arity(g.stream())?)))
        }
        _ => Ok(None),
    }
}

fn variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        take_attributes(&tokens, &mut pos)?;
        let Some(TokenTree::Ident(name)) = tokens.get(pos) else {
            return Err("expected a variant name".into());
        };
        let name = name.to_string();
        pos += 1;
        let shape = match shape_of(tokens.get(pos))? {
            Some(shape) => {
                pos += 1;
                shape
            }
            None => Shape::Unit,
        };
        skip_to_comma(&tokens, &mut pos);
        pos += 1;
        out.push(Variant { name, shape });
    }
    Ok(out)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    take_attributes(&tokens, &mut pos)?;
    take_visibility(&tokens, &mut pos);
    let Some(TokenTree::Ident(keyword)) = tokens.get(pos) else {
        return Err("expected `struct` or `enum`".into());
    };
    let keyword = keyword.to_string();
    let Some(TokenTree::Ident(name)) = tokens.get(pos + 1) else {
        return Err("expected a type name".into());
    };
    let name = name.to_string();
    pos += 2;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("the offline serde stand-in does not derive for generic types (`{name}`)"));
    }
    match keyword.as_str() {
        "struct" => Ok(Item::Struct { name, shape: shape_of(tokens.get(pos))?.unwrap_or(Shape::Unit) }),
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok(Item::Enum { name, variants: variants(g.stream())? })
            }
            _ => Err(format!("expected the variants of `{name}`")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

// ---- generation ---------------------------------------------------------

const SER: &str = "::serde::Serialize::serialize_json";

/// Statements writing `{"a":..,"b":..}`; `access` turns a field name into
/// the expression that borrows it.
fn write_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("out.push('{');");
    for (i, f) in fields.iter().enumerate() {
        let lead = if i == 0 { "" } else { "," };
        code += &format!("out.push_str({:?}); {SER}({}, out);", format!("{lead}\"{}\":", f.name), access(&f.name));
    }
    code + "out.push('}');"
}

fn write_tuple(arity: usize, access: impl Fn(usize) -> String) -> String {
    if arity == 1 {
        return format!("{SER}({}, out);", access(0));
    }
    let mut code = String::from("out.push('[');");
    for i in 0..arity {
        if i > 0 {
            code += "out.push(',');";
        }
        code += &format!("{SER}({}, out);", access(i));
    }
    code + "out.push(']');"
}

fn serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => "out.push_str(\"null\");".to_owned(),
                Shape::Tuple(arity) => write_tuple(*arity, |i| format!("&self.{i}")),
                Shape::Named(fields) => write_named(fields, |f| format!("&self.{f}")),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let tag = &v.name;
                arms += &match &v.shape {
                    Shape::Unit => format!("{name}::{tag} => out.push_str({:?}),", format!("\"{tag}\"")),
                    Shape::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        format!(
                            "{name}::{tag}({}) => {{ out.push_str({:?}); {} out.push('}}'); }}",
                            binds.join(", "),
                            format!("{{\"{tag}\":"),
                            write_tuple(*arity, |i| format!("f{i}")),
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{tag} {{ {} }} => {{ out.push_str({:?}); {} out.push('}}'); }}",
                            binds.join(", "),
                            format!("{{\"{tag}\":"),
                            write_named(fields, str::to_owned),
                        )
                    }
                };
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
             fn serialize_json(&self, out: &mut ::std::string::String) {{ {body} }} \
         }}"
    )
}

const PRIVATE: &str = "::serde::__private";

fn read_named(path: &str, fields: &[Field]) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let helper = if f.default { "field_or_default" } else { "field" };
            format!("{}: {PRIVATE}::{helper}(map, {:?})?", f.name, f.name)
        })
        .collect();
    format!("{path} {{ {} }}", inits.join(", "))
}

fn read_tuple(path: &str, arity: usize) -> String {
    let reads: Vec<String> =
        (0..arity).map(|i| format!("::serde::Deserialize::deserialize_json(&items[{i}])?")).collect();
    format!("{path}({})", reads.join(", "))
}

fn deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => {
            let body = match shape {
                Shape::Unit => format!("{PRIVATE}::unit(Some(value), {name:?})?; Ok({name})"),
                Shape::Tuple(1) => format!("Ok({name}(::serde::Deserialize::deserialize_json(value)?))"),
                Shape::Tuple(arity) => {
                    format!("let items = {PRIVATE}::tuple(Some(value), {arity})?; Ok({})", read_tuple(name, *arity))
                }
                Shape::Named(fields) => {
                    format!("let map = {PRIVATE}::object(Some(value))?; Ok({})", read_named(name, fields))
                }
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let tag = &v.name;
                let path = format!("{name}::{tag}");
                let arm = match &v.shape {
                    Shape::Unit => format!("{PRIVATE}::unit(body, tag)?; Ok({path})"),
                    Shape::Tuple(1) => format!("Ok({path}({PRIVATE}::newtype(body, tag)?))"),
                    Shape::Tuple(arity) => {
                        format!("let items = {PRIVATE}::tuple(body, {arity})?; Ok({})", read_tuple(&path, *arity))
                    }
                    Shape::Named(fields) => {
                        format!("let map = {PRIVATE}::object(body)?; Ok({})", read_named(&path, fields))
                    }
                };
                arms += &format!("{tag:?} => {{ {arm} }}");
            }
            let body = format!(
                "let (tag, body) = {PRIVATE}::variant(value)?; \
                 match tag {{ {arms} other => Err({PRIVATE}::unknown_variant(other, {name:?})) }}"
            );
            (name, body)
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
             fn deserialize_json(value: &::serde::json::Value) \
                 -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }} \
         }}"
    )
}
