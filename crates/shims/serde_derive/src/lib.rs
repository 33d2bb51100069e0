//! Hermetic shim of serde's `#[derive(Serialize)]` / `#[derive(Deserialize)]`.
//!
//! Implemented directly on `proc_macro::TokenStream` (the sandbox has no
//! `syn`/`quote`).  Supports the item shapes this workspace derives on:
//!
//! * structs with named fields — serialized as a JSON object in
//!   declaration order;
//! * enums whose variants are all unit variants — serialized as the
//!   variant name string (serde's externally-tagged representation for
//!   unit variants).
//!
//! Structs take the `#[serde(...)]` attributes upstream serde spells the
//! same way:
//!
//! * container: `deny_unknown_fields`, `default`, `expecting = "..."`;
//! * field: `rename = "key"`, `default`, `default = "path"`,
//!   `skip_serializing_if = "path"`, `deserialize_with = "path"`.
//!
//! Anything else — another shape, another `serde` attribute, or a
//! `serde` attribute on an enum — is a compile error naming the
//! limitation, so nothing is silently mis-serialized.  The generated
//! code calls the helpers in `serde::__private`; the crate docs of the
//! `serde` shim describe the decoding rules.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// How a field reads when its key is absent.
enum Absent {
    /// Decode `null`: `None` for `Option`, a missing-field error otherwise.
    Null,
    /// `Default::default()`.
    Default,
    /// A call of the named function.
    Call(String),
}

/// One named field of a derived struct.
struct Field {
    /// The Rust field name.
    name: String,
    /// The wire key, as a Rust string literal.
    key: String,
    absent: Absent,
    skip_serializing_if: Option<String>,
    deserialize_with: Option<String>,
}

/// Container attributes of a derived struct.
#[derive(Default)]
struct Container {
    deny_unknown_fields: bool,
    default: bool,
    /// What a non-object is reported as expecting, as a string literal.
    expecting: Option<String>,
}

/// Parsed shape of the deriving item.
enum Item {
    Struct {
        name: String,
        container: Container,
        fields: Vec<Field>,
    },
    UnitEnum {
        name: String,
        variants: Vec<String>,
    },
}

/// One `name` or `name = "literal"` entry of a `#[serde(...)]` list; the
/// value keeps its quotes.
type SerdeArg = (String, Option<String>);

/// Consume the attributes at the front of `tokens`, returning the
/// entries of every `#[serde(...)]` among them.
fn take_attrs(tokens: &mut Tokens) -> Result<Vec<SerdeArg>, String> {
    let mut args = Vec::new();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(g)) = tokens.next() else {
            return Err("serde shim: malformed attribute".to_string());
        };
        let mut inner = g.stream().into_iter();
        match (inner.next(), inner.next()) {
            (Some(TokenTree::Ident(id)), Some(TokenTree::Group(list)))
                if id.to_string() == "serde" =>
            {
                args.extend(parse_serde_list(&list)?);
            }
            _ => {} // doc comments, `#[allow]`, ...
        }
    }
    Ok(args)
}

fn parse_serde_list(list: &Group) -> Result<Vec<SerdeArg>, String> {
    let mut args = Vec::new();
    let mut t = list.stream().into_iter().peekable();
    while let Some(tok) = t.next() {
        let TokenTree::Ident(name) = tok else {
            return Err(format!("serde shim: unexpected `{tok}` in #[serde(...)]"));
        };
        let value = match t.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                t.next();
                match t.next() {
                    Some(TokenTree::Literal(lit)) if lit.to_string().starts_with('"') => {
                        Some(lit.to_string())
                    }
                    _ => return Err(format!("serde shim: `{name}` takes a string literal")),
                }
            }
            _ => None,
        };
        args.push((name.to_string(), value));
        match t.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => {
                return Err(format!("serde shim: unexpected `{other}` in #[serde(...)]"))
            }
        }
    }
    Ok(args)
}

/// The contents of a string literal naming a path (no escapes occur in
/// paths, so stripping the quotes is enough).
fn path_of(literal: &str) -> String {
    literal.trim_matches('"').to_string()
}

fn unsupported(arg: &SerdeArg, on: &str) -> String {
    let (name, value) = arg;
    let spelled = match value {
        Some(v) => format!("{name} = {v}"),
        None => name.clone(),
    };
    format!("serde shim: `#[serde({spelled})]` is not supported on {on}")
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_vis(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

fn parse_container(args: Vec<SerdeArg>) -> Result<Container, String> {
    let mut c = Container::default();
    for arg in args {
        match (arg.0.as_str(), &arg.1) {
            ("deny_unknown_fields", None) => c.deny_unknown_fields = true,
            ("default", None) => c.default = true,
            ("expecting", Some(text)) => c.expecting = Some(text.clone()),
            _ => return Err(unsupported(&arg, "a struct")),
        }
    }
    Ok(c)
}

fn parse_field(name: String, args: Vec<SerdeArg>) -> Result<Field, String> {
    let mut f = Field {
        key: format!("{name:?}"),
        name,
        absent: Absent::Null,
        skip_serializing_if: None,
        deserialize_with: None,
    };
    for arg in args {
        match (arg.0.as_str(), &arg.1) {
            ("rename", Some(key)) => f.key = key.clone(),
            ("default", None) => f.absent = Absent::Default,
            ("default", Some(path)) => f.absent = Absent::Call(path_of(path)),
            ("skip_serializing_if", Some(path)) => f.skip_serializing_if = Some(path_of(path)),
            ("deserialize_with", Some(path)) => f.deserialize_with = Some(path_of(path)),
            _ => return Err(unsupported(&arg, "a field")),
        }
    }
    Ok(f)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut t = input.into_iter().peekable();
    let container_args = take_attrs(&mut t)?;
    skip_vis(&mut t);
    let kind = match t.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    let name = match t.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    // Reject generics: the workspace derives only on concrete types.
    if matches!(t.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim: generic type `{name}` is not supported"
        ));
    }
    let body = loop {
        match t.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "serde shim: tuple struct `{name}` is not supported"
                ));
            }
            Some(_) => continue,
            None => return Err(format!("serde shim: `{name}` has no braced body")),
        }
    };
    let mut inner = body.stream().into_iter().peekable();
    match kind.as_str() {
        "struct" => {
            let container = parse_container(container_args)?;
            let mut fields = Vec::new();
            loop {
                let args = take_attrs(&mut inner)?;
                skip_vis(&mut inner);
                match inner.next() {
                    Some(TokenTree::Ident(id)) => fields.push(parse_field(id.to_string(), args)?),
                    None => break,
                    other => return Err(format!("unexpected token in `{name}`: {other:?}")),
                }
                // Skip past the `:` and the type tokens up to a top-level comma.
                let mut depth = 0i32;
                loop {
                    match inner.next() {
                        Some(TokenTree::Punct(p)) => match p.as_char() {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            ',' if depth <= 0 => break,
                            _ => {}
                        },
                        Some(_) => {}
                        None => break,
                    }
                }
            }
            Ok(Item::Struct {
                name,
                container,
                fields,
            })
        }
        "enum" => {
            if let Some(arg) = container_args.first() {
                return Err(unsupported(arg, "an enum"));
            }
            let mut variants = Vec::new();
            loop {
                if let Some(arg) = take_attrs(&mut inner)?.first() {
                    return Err(unsupported(arg, "an enum variant"));
                }
                match inner.next() {
                    Some(TokenTree::Ident(id)) => variants.push(id.to_string()),
                    None => break,
                    other => return Err(format!("unexpected token in `{name}`: {other:?}")),
                }
                match inner.next() {
                    // Unit variant followed by the separating comma (or end).
                    Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                    None => break,
                    Some(_) => {
                        return Err(format!(
                            "serde shim: enum `{name}` has a data-carrying variant; only unit \
                             enums are supported"
                        ));
                    }
                }
            }
            Ok(Item::UnitEnum { name, variants })
        }
        other => Err(format!("serde shim: cannot derive on `{other}` items")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Derive `serde::Serialize` (shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let src = match item {
        Item::Struct { name, fields, .. } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let push = format!(
                        "__fields.push(({key}.to_string(), \
                         ::serde::Serialize::to_json_value(&self.{name})));\n",
                        key = f.key,
                        name = f.name,
                    );
                    match &f.skip_serializing_if {
                        Some(skip) => format!("if !{skip}(&self.{}) {{ {push} }}\n", f.name),
                        None => push,
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::__private::Value {{\n\
                         let mut __fields: ::std::vec::Vec<(::std::string::String, \
                              ::serde::__private::Value)> = ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::__private::Value::Object(__fields)\n\
                     }}\n\
                 }}"
            )
        }
        Item::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "{name}::{v} => ::serde::__private::Value::String({v:?}.to_string()),\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::__private::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    };
    src.parse().unwrap()
}

/// Derive `serde::Deserialize` (shim).
///
/// Structs decode from a JSON object in one pass over its keys, in input
/// order, moving each value into its field; a field whose key never
/// appears takes its default or decodes as `null`.  Unit enums decode
/// from their variant-name string.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let src = match item {
        Item::Struct {
            name,
            container,
            fields,
        } => {
            let slots: String = fields
                .iter()
                .map(|f| format!("let mut __f_{} = ::std::option::Option::None;\n", f.name))
                .collect();
            let arms: String = fields
                .iter()
                .map(|f| {
                    let decode = match &f.deserialize_with {
                        Some(with) => format!(
                            "{with}(__x).map_err(|__e| __e.within({name:?}, {key}))?",
                            key = f.key
                        ),
                        None => format!("::serde::__private::field(__x, {name:?}, {})?", f.key),
                    };
                    format!(
                        "{key} => __f_{field} = ::std::option::Option::Some({decode}),\n",
                        key = f.key,
                        field = f.name
                    )
                })
                .collect();
            let other_arm = if container.deny_unknown_fields {
                "_ => return ::std::result::Result::Err(::serde::Error::unknown_field(__k)),"
            } else {
                "_ => {}"
            };
            let inits: String = fields
                .iter()
                .map(|f| {
                    let absent = match (&f.absent, container.default) {
                        (Absent::Default, _) => "::std::default::Default::default()".to_string(),
                        (Absent::Call(path), _) => format!("{path}()"),
                        (Absent::Null, true) => format!("__default.{}", f.name),
                        (Absent::Null, false) => {
                            format!("::serde::__private::missing({name:?}, {})?", f.key)
                        }
                    };
                    format!(
                        "{field}: match __f_{field} {{\n\
                             ::std::option::Option::Some(__x) => __x,\n\
                             ::std::option::Option::None => {absent},\n\
                         }},\n",
                        field = f.name
                    )
                })
                .collect();
            let default = if container.default {
                "let __default: Self = ::std::default::Default::default();\n"
            } else {
                ""
            };
            let expecting = container.expecting.unwrap_or_else(|| format!("{name:?}"));
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(\n\
                         __v: ::serde::__private::Value,\n\
                     ) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         let __object = ::serde::__private::object(__v, {expecting})?;\n\
                         {slots}\
                         for (__k, __x) in __object {{\n\
                             match __k.as_str() {{\n\
                                 {arms}\
                                 {other_arm}\n\
                             }}\n\
                         }}\n\
                         {default}\
                         ::std::result::Result::Ok({name} {{\n\
                             {inits}\
                         }})\n\
                     }}\n\
                 }}"
            )
        }
        Item::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(\n\
                         __v: ::serde::__private::Value,\n\
                     ) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match __v {{\n\
                             ::serde::__private::Value::String(__s) => match __s.as_str() {{\n\
                                 {arms}\
                                 __other => ::std::result::Result::Err(::serde::Error::custom(\n\
                                     ::std::format!(\"unknown {name} variant `{{__other}}`\"),\n\
                                 )),\n\
                             }},\n\
                             __other => ::std::result::Result::Err(::serde::Error::invalid(\n\
                                 ::serde::Expected::Variant({name:?}),\n\
                                 __other,\n\
                             )),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    src.parse().unwrap()
}
