//! Stand-in `#[derive(Serialize)]` for what lmpi derives it on: structs with
//! named fields, no generics, no `#[serde(...)]` attributes. Anything else
//! is a compile error naming this file, not a silently wrong impl.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match expand(input) {
        Ok(code) => code.parse().expect("generated impl parses"),
        Err(msg) => format!("compile_error!({msg:?});")
            .parse()
            .expect("compile_error parses"),
    }
}

fn expand(input: TokenStream) -> Result<String, String> {
    let mut tokens = input.into_iter();
    // Skip attributes and visibility up to the `struct` keyword.
    for tt in tokens.by_ref() {
        match tt {
            TokenTree::Ident(id) if id.to_string() == "struct" => break,
            TokenTree::Ident(id) if matches!(id.to_string().as_str(), "enum" | "union") => {
                return Err(unsupported("only structs"));
            }
            _ => {}
        }
    }
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err(unsupported("a struct name"));
    };
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => return Err(unsupported("named fields and no generics")),
    };
    let fields = field_names(body)?;

    let mut out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<S: ::serde::Serializer>(&self, serializer: S) \
         -> ::core::result::Result<S::Ok, S::Error> {{\n\
         let mut st = ::serde::Serializer::serialize_struct(serializer, \"{name}\", {})?;\n",
        fields.len()
    );
    for f in &fields {
        out.push_str(&format!(
            "::serde::ser::SerializeStruct::serialize_field(&mut st, \"{f}\", &self.{f})?;\n"
        ));
    }
    out.push_str("::serde::ser::SerializeStruct::end(st)\n}\n}\n");
    Ok(out)
}

/// The field names of a brace-delimited struct body: for each field, the
/// identifier before the first `:`; its type runs to the next `,` outside
/// angle brackets.
fn field_names(body: TokenStream) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut tokens = body.into_iter().peekable();
    while tokens.peek().is_some() {
        let mut name = None;
        for tt in tokens.by_ref() {
            match tt {
                // `#[...]` attributes (doc comments) and `pub(...)`.
                TokenTree::Punct(p) if p.as_char() == '#' => {}
                TokenTree::Group(_) => {}
                TokenTree::Ident(id) if id.to_string() == "pub" => {}
                TokenTree::Ident(id) => name = Some(id.to_string()),
                TokenTree::Punct(p) if p.as_char() == ':' => break,
                other => return Err(unsupported(&format!("field syntax near `{other}`"))),
            }
        }
        names.push(name.ok_or_else(|| unsupported("named fields"))?);
        let mut depth = 0i32;
        for tt in tokens.by_ref() {
            if let TokenTree::Punct(p) = tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    Ok(names)
}

fn unsupported(what: &str) -> String {
    format!("benchmark/standins/serde_derive supports {what}")
}
