//! The little JSON this package writes and reads. The workspace has no
//! serde; output is checked with `obs::export::validate_json` in tests.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot hold {v}");
    format!("{v}")
}

/// An object from keys and already-rendered values.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", string(k.as_ref()))).collect();
    format!("{{{}}}", body.join(", "))
}

/// An array of already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Every string literal of `text`, in order, unescaped for the two
/// escapes [`string`] writes for printable text. Enough to read back a
/// flat object of string values such as `expected.json`.
pub fn string_tokens(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut token = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => token.extend(chars.next()),
                c => token.push(c),
            }
        }
        tokens.push(token);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use locusroute::obs::export::validate_json;

    #[test]
    fn rendered_values_are_valid_json() {
        let doc = object(&[
            ("text", string("a \"quoted\" back\\slash\nline")),
            ("n", number(1.25e-7)),
            ("list", array(&[number(1.0), string("x")])),
            ("empty", object::<&str>(&[])),
        ]);
        validate_json(&doc).unwrap();
    }

    #[test]
    fn string_tokens_read_back_a_flat_object() {
        let doc = object(&[("a/b.c", string("00ff")), ("q\"", string("x\\y"))]);
        assert_eq!(string_tokens(&doc), ["a/b.c", "00ff", "q\"", "x\\y"]);
    }
}
