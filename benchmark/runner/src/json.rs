//! Just enough JSON writing for the result line and the files under
//! `benchmark/out/` (the runner links nothing but std).

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits, or `null` when there is none to give.
pub fn number(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

/// `{"k": v, …}` from already-encoded values, keys in the given order.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, …]` from already-encoded values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes_what_json_requires() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_print_nan() {
        assert_eq!(number(Some(1.2034)), "1.2034");
        assert_eq!(number(Some(2.0)), "2");
        assert_eq!(number(Some(f64::NAN)), "null");
        assert_eq!(number(Some(f64::INFINITY)), "null");
        assert_eq!(number(None), "null");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let o = object(&[("a", number(Some(1.5))), ("b", array(&[quote("x")]))]);
        assert_eq!(o, r#"{"a": 1.5, "b": ["x"]}"#);
    }
}
