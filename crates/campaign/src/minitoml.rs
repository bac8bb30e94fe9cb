//! A dependency-free parser for the TOML subset `campaign.toml`
//! uses: `[table]` / `[table.sub]` headers, bare keys, basic and
//! literal strings, integers (decimal and `0x` hex, `_` separators),
//! booleans, and (possibly multi-line) arrays of those scalars.
//!
//! Two deliberate restrictions keep the campaign content address
//! honest:
//!
//! * **no floats** — a float admits many spellings (`1.0`, `1e0`,
//!   `1.00`) that compare equal but hash differently; every campaign
//!   knob is an integer (percent, permille, count, seed), so the
//!   problem is excluded at the grammar;
//! * **no duplicate keys or reopened tables** — a spec that says a
//!   thing twice is a typo, not a preference.
//!
//! Tables parse into `BTreeMap`s, so everything downstream is
//! independent of the order keys appear in the file — the property
//! the hashing property tests pin down.

use std::collections::BTreeMap;
use std::fmt;

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TomlValue {
    /// A basic (`"..."`) or literal (`'...'`) string.
    Str(String),
    /// An integer (decimal or `0x` hex, `_` separators allowed).
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, ...]`, possibly spanning lines.
    Array(Vec<TomlValue>),
}

/// One table: keys to values, sub-tables alongside.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TomlTable {
    /// `key = value` entries, canonically ordered.
    pub values: BTreeMap<String, TomlValue>,
    /// Nested `[parent.child]` tables, canonically ordered.
    pub tables: BTreeMap<String, TomlTable>,
}

impl TomlTable {
    /// The sub-table named `name`, if present.
    pub(crate) fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables.get(name)
    }

    /// The value for `key`, if present.
    pub(crate) fn value(&self, key: &str) -> Option<&TomlValue> {
        self.values.get(key)
    }
}

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            chars: text.chars().peekable(),
            line: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn err(&self, msg: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    /// Skip a `# ...` comment up to (not including) the newline.
    fn skip_comment(&mut self) {
        if self.peek() == Some('#') {
            while self.peek().is_some_and(|c| c != '\n') {
                self.bump();
            }
        }
    }

    /// Skip whitespace, newlines and comments — used between items
    /// and inside multi-line arrays.
    fn skip_blank(&mut self) {
        loop {
            self.skip_inline_ws();
            match self.peek() {
                Some('#') => self.skip_comment(),
                Some('\n') | Some('\r') => {
                    self.bump();
                }
                _ => return,
            }
        }
    }

    /// Require end-of-line (allowing trailing whitespace/comment)
    /// after a completed item.
    fn expect_eol(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        self.skip_comment();
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some('\r') => {
                self.bump();
                if self.peek() == Some('\n') {
                    self.bump();
                    Ok(())
                } else {
                    Err(self.err("bare carriage return"))
                }
            }
            Some(c) => Err(self.err(format!("unexpected `{c}` after value"))),
        }
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parse a complete document.
pub(crate) fn parse(text: &str) -> Result<TomlTable, TomlError> {
    let mut cur = Cursor::new(text);
    let mut root = TomlTable::default();
    // Path of the table currently being filled; empty = root.
    let mut current: Vec<String> = Vec::new();
    loop {
        cur.skip_blank();
        match cur.peek() {
            None => return Ok(root),
            Some('[') => {
                cur.bump();
                if cur.peek() == Some('[') {
                    return Err(cur.err(
                        "arrays of tables (`[[...]]`) are not part of the campaign spec subset",
                    ));
                }
                let path = parse_table_path(&mut cur)?;
                open_table(&mut root, &path).map_err(|msg| cur.err(msg))?;
                current = path;
                cur.expect_eol()?;
            }
            Some(c) if is_bare_key_char(c) => {
                let key = parse_bare_key(&mut cur)?;
                cur.skip_inline_ws();
                if cur.bump() != Some('=') {
                    return Err(cur.err(format!("expected `=` after key `{key}`")));
                }
                cur.skip_inline_ws();
                let value = parse_value(&mut cur, 0)?;
                cur.expect_eol()?;
                let table = table_mut(&mut root, &current);
                if table.values.insert(key.clone(), value).is_some() {
                    return Err(cur.err(format!("duplicate key `{key}`")));
                }
            }
            Some(c) => return Err(cur.err(format!("unexpected `{c}`"))),
        }
    }
}

fn parse_bare_key(cur: &mut Cursor) -> Result<String, TomlError> {
    let mut key = String::new();
    while let Some(c) = cur.peek().filter(|&c| is_bare_key_char(c)) {
        cur.bump();
        key.push(c);
    }
    if key.is_empty() {
        return Err(cur.err("expected a key"));
    }
    Ok(key)
}

fn parse_table_path(cur: &mut Cursor) -> Result<Vec<String>, TomlError> {
    let mut path = Vec::new();
    loop {
        cur.skip_inline_ws();
        path.push(parse_bare_key(cur)?);
        cur.skip_inline_ws();
        match cur.bump() {
            Some('.') => continue,
            Some(']') => return Ok(path),
            _ => return Err(cur.err("expected `.` or `]` in table header")),
        }
    }
}

/// Create the table at `path`, erroring if it already exists (the
/// spec subset forbids reopening) and creating intermediates.
fn open_table(root: &mut TomlTable, path: &[String]) -> Result<(), String> {
    if let Some((last, parents)) = path.split_last() {
        let table = table_mut(root, parents);
        if table.tables.contains_key(last) {
            return Err(format!("table `{}` defined twice", path.join(".")));
        }
        table.tables.insert(last.clone(), TomlTable::default());
    }
    Ok(())
}

/// The table at `path`, creating any table missing on the way (a
/// key-value line's path was opened by its table header already).
fn table_mut<'t>(root: &'t mut TomlTable, path: &[String]) -> &'t mut TomlTable {
    let mut table = root;
    for part in path {
        table = table.tables.entry(part.clone()).or_default();
    }
    table
}

fn parse_value(cur: &mut Cursor, depth: usize) -> Result<TomlValue, TomlError> {
    if depth > 8 {
        return Err(cur.err("array nesting too deep"));
    }
    match cur.peek() {
        Some('"') => parse_basic_string(cur).map(TomlValue::Str),
        Some('\'') => parse_literal_string(cur).map(TomlValue::Str),
        Some('[') => {
            cur.bump();
            let mut items = Vec::new();
            loop {
                cur.skip_blank();
                if cur.peek() == Some(']') {
                    cur.bump();
                    return Ok(TomlValue::Array(items));
                }
                items.push(parse_value(cur, depth + 1)?);
                cur.skip_blank();
                match cur.peek() {
                    Some(',') => {
                        cur.bump();
                    }
                    Some(']') => {
                        cur.bump();
                        return Ok(TomlValue::Array(items));
                    }
                    _ => return Err(cur.err("expected `,` or `]` in array")),
                }
            }
        }
        Some('t') | Some('f') => {
            let word = parse_bare_key(cur)?;
            match word.as_str() {
                "true" => Ok(TomlValue::Bool(true)),
                "false" => Ok(TomlValue::Bool(false)),
                other => Err(cur.err(format!("unexpected value `{other}`"))),
            }
        }
        Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => parse_int(cur),
        Some(c) => Err(cur.err(format!("unexpected `{c}` where a value was expected"))),
        None => Err(cur.err("unexpected end of input")),
    }
}

fn parse_int(cur: &mut Cursor) -> Result<TomlValue, TomlError> {
    let mut text = String::new();
    while let Some(c) = cur
        .peek()
        .filter(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '+' || c == '.')
    {
        cur.bump();
        text.push(c);
    }
    if text.contains('.') || text.to_ascii_lowercase().contains('e') && !text.starts_with("0x") {
        return Err(cur.err(format!(
            "`{text}` looks like a float; the campaign spec subset is integer-only \
             (use percent/permille/count knobs)"
        )));
    }
    let digits = text.replace('_', "");
    let (negative, digits) = match digits.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, digits.strip_prefix('+').unwrap_or(&digits)),
    };
    let magnitude = if let Some(hex) = digits.strip_prefix("0x").or(digits.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        digits.parse::<i64>()
    }
    .map_err(|_| cur.err(format!("invalid integer `{text}`")))?;
    Ok(TomlValue::Int(if negative {
        -magnitude
    } else {
        magnitude
    }))
}

fn parse_basic_string(cur: &mut Cursor) -> Result<String, TomlError> {
    cur.bump(); // opening quote
    let mut out = String::new();
    loop {
        match cur.bump() {
            None | Some('\n') => return Err(cur.err("unterminated string")),
            Some('"') => return Ok(out),
            Some('\\') => match cur.bump() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let mut code = 0;
                    for _ in 0..4 {
                        match cur.bump().and_then(|c| c.to_digit(16)) {
                            Some(digit) => code = code * 16 + digit,
                            None => return Err(cur.err("invalid \\u escape")),
                        }
                    }
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return Err(cur.err("invalid \\u escape")),
                    }
                }
                _ => return Err(cur.err("invalid escape in string")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn parse_literal_string(cur: &mut Cursor) -> Result<String, TomlError> {
    cur.bump(); // opening quote
    let mut out = String::new();
    loop {
        match cur.bump() {
            None | Some('\n') => return Err(cur.err("unterminated string")),
            Some('\'') => return Ok(out),
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(table: &TomlTable, key: &str) -> Vec<i64> {
        match table.value(key) {
            Some(TomlValue::Array(items)) => items
                .iter()
                .map(|v| match v {
                    TomlValue::Int(n) => *n,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect(),
            other => panic!("expected array at `{key}`, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_campaign_shape() {
        let doc = parse(concat!(
            "# a campaign\n",
            "[campaign]\n",
            "name = \"smoke\"   # trailing comment\n",
            "scale = 'smoke'\n",
            "\n",
            "[workloads]\n",
            "ids = [\"escat-b\", \"prism-a\"]\n",
            "fault_events = [0, 2,\n",
            "    4]  # multi-line array\n",
            "seeds = [0xF417, 1_000]\n",
            "enabled = true\n",
        ))
        .unwrap();
        let campaign = doc.table("campaign").unwrap();
        assert_eq!(
            campaign.value("name"),
            Some(&TomlValue::Str("smoke".into()))
        );
        assert_eq!(
            campaign.value("scale"),
            Some(&TomlValue::Str("smoke".into()))
        );
        let w = doc.table("workloads").unwrap();
        assert_eq!(ints(w, "fault_events"), vec![0, 2, 4]);
        assert_eq!(ints(w, "seeds"), vec![0xF417, 1000]);
        assert_eq!(w.value("enabled"), Some(&TomlValue::Bool(true)));
        assert_eq!(
            w.value("ids"),
            Some(&TomlValue::Array(vec![
                TomlValue::Str("escat-b".into()),
                TomlValue::Str("prism-a".into()),
            ]))
        );
    }

    #[test]
    fn key_order_is_canonicalized_by_construction() {
        let a = parse("[t]\nx = 1\ny = 2\n").unwrap();
        let b = parse("[t]\ny = 2\nx = 1\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn section_order_is_canonicalized_too() {
        let a = parse("[a]\nk = 1\n[b]\nk = 2\n").unwrap();
        let b = parse("[b]\nk = 2\n[a]\nk = 1\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nested_tables() {
        let doc = parse("[a.b]\nk = 3\n").unwrap();
        assert_eq!(
            doc.table("a").unwrap().table("b").unwrap().value("k"),
            Some(&TomlValue::Int(3))
        );
    }

    #[test]
    fn rejects_floats_with_a_pointer_to_the_fix() {
        let e = parse("[t]\nx = 1.5\n").unwrap_err();
        assert!(e.msg.contains("integer-only"), "{e}");
        assert!(parse("[t]\nx = 1e3\n").is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(parse("[t]\nx = 1\nx = 2\n")
            .unwrap_err()
            .msg
            .contains("duplicate"));
        assert!(parse("[t]\nk = 1\n[t]\nj = 2\n")
            .unwrap_err()
            .msg
            .contains("defined twice"));
    }

    #[test]
    fn rejects_junk() {
        assert!(parse("[t]\nx = \n").is_err());
        assert!(parse("[t\nx = 1\n").is_err());
        assert!(parse("x 1\n").is_err());
        assert!(parse("[t]\nx = \"unterminated\n").is_err());
        assert!(parse("[t]\nx = [1, 2\n").is_err(), "unclosed array");
        assert!(parse("[[t]]\nx = 1\n").is_err(), "array of tables");
        assert!(parse("[t]\nx = 1 y = 2\n").is_err(), "two items per line");
        assert!(parse("[t]\nx = maybe\n").is_err());
    }

    #[test]
    fn integers_parse_in_both_bases_and_signs() {
        let doc = parse("[t]\na = -42\nb = +7\nc = 0x10\nd = 1_000_000\n").unwrap();
        let t = doc.table("t").unwrap();
        assert_eq!(t.value("a"), Some(&TomlValue::Int(-42)));
        assert_eq!(t.value("b"), Some(&TomlValue::Int(7)));
        assert_eq!(t.value("c"), Some(&TomlValue::Int(16)));
        assert_eq!(t.value("d"), Some(&TomlValue::Int(1_000_000)));
        assert!(
            parse("[t]\na = 99999999999999999999\n").is_err(),
            "overflow"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_invisible() {
        let a = parse("\n\n# hi\n[t]\n# mid\nx = 1 # tail\n\n").unwrap();
        let b = parse("[t]\nx = 1\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn crlf_line_endings_parse() {
        let doc = parse("[t]\r\nx = 1\r\n").unwrap();
        assert_eq!(doc.table("t").unwrap().value("x"), Some(&TomlValue::Int(1)));
    }
}
