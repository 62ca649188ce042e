//! The workspace's JSON codec: the one escaper, writer and reader behind
//! the checkpoint (`acdc-checkpoint/v2`), the metrics snapshot
//! (`acdc-telemetry/v2`) and the event log's JSON Lines.
//!
//! The format is a decision owned here, and it is deliberately small.
//! Numbers are `u64` in both directions: [`Writer`] has no other number
//! type, and [`Json::parse`] refuses `.`, `e`, `E` and signs, so float
//! formatting cannot reach a document undetected (lint rule S001).
//! Objects keep their key order as written. Strings escape `"`, `\`,
//! `\n` and `\t` in their short forms and every other character below
//! U+0020 as `\u00XX` (RFC 8259). The reader takes each string and
//! number only in the form the writer gives it — no other escape, no raw
//! control character, no leading zero — so every string and number it
//! reads is written back as the same bytes.

use std::fmt::Write as _;

use acdc_packet::FlowKey;

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// Append `c` as it appears inside a JSON string: the one escaper.
fn escape_char(out: &mut String, c: char) {
    match c {
        '"' => out.push_str("\\\""),
        '\\' => out.push_str("\\\\"),
        '\n' => out.push_str("\\n"),
        '\t' => out.push_str("\\t"),
        c if c < ' ' => {
            let _ = write!(out, "\\u{:04x}", u32::from(c));
        }
        c => out.push(c),
    }
}

/// Builds one JSON document. The writer places every comma, colon,
/// bracket and quote; a caller names keys and values in order, and nests
/// with [`Writer::obj`] / [`Writer::arr`], whose closures balance the
/// brackets by construction.
pub struct Writer(String);

impl Writer {
    /// A document that is one object, whose keys and values `body`
    /// writes; `capacity` is a guess at its length in bytes.
    pub fn object(capacity: usize, body: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer(String::with_capacity(capacity));
        w.obj(body);
        w.0
    }

    /// The text, after the comma the next item needs: every item takes
    /// one except the first, the first in a bracket and a key's value.
    fn sep(&mut self) -> &mut String {
        if !matches!(self.0.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.0.push(',');
        }
        &mut self.0
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Writer {
        self.str(name).0.push(':');
        self
    }

    /// An unsigned integer, the only number the format has.
    pub fn num(&mut self, n: u64) -> &mut Writer {
        let _ = write!(self.sep(), "{n}");
        self
    }

    /// `n`, or `null` for `None`.
    pub fn opt_num(&mut self, n: Option<u64>) -> &mut Writer {
        match n {
            Some(n) => self.num(n),
            None => self.null(),
        }
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.sep().push_str("null");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Writer {
        self.sep().push_str(if b { "true" } else { "false" });
        self
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        let out = self.sep();
        out.push('"');
        if s.bytes().any(|b| b < b' ' || b == b'"' || b == b'\\') {
            s.chars().for_each(|c| escape_char(out, c));
        } else {
            out.push_str(s);
        }
        out.push('"');
        self
    }

    /// An object whose keys and values `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.sep().push('{');
        body(self);
        self.0.push('}');
        self
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.sep().push('[');
        body(self);
        self.0.push(']');
        self
    }
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// A parsed JSON value, restricted to what [`Writer`] writes: objects
/// (ordered pair lists — no hash maps), arrays, strings, booleans, `null`
/// and **unsigned 64-bit integers**.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one whole document; anything after it but whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader { s: text, pos: 0 };
        let v = p.value()?;
        p.peek()
            .map_or(Ok(v), |_| Err(p.err("trailing content after document")))
    }

    /// The value under `name` in an object.
    pub fn field(&self, name: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`")),
            _ => Err(format!("expected an object looking up `{name}`")),
        }
    }

    /// The number this value is, which must fit in `T`.
    pub fn num<T: TryFrom<u64>>(&self) -> Result<T, String> {
        match self {
            Json::Num(n) => T::try_from(*n).map_err(|_| format!("number {n} out of range")),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// The number this value is, or `None` for `null`.
    pub fn opt_num(&self) -> Result<Option<u64>, String> {
        match self {
            Json::Null => Ok(None),
            other => other.num().map(Some),
        }
    }

    /// The boolean this value is.
    pub fn boolean(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }

    /// The string this value is.
    pub fn str_(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    /// The elements of the array this value is.
    pub fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    /// Each element of the array this value is, read by `read`.
    pub fn arr_of<T>(
        &self,
        read: impl FnMut(&Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.arr()?.iter().map(read).collect()
    }

    /// The elements of the array this value is, which must number `N`.
    pub fn tuple<const N: usize>(&self) -> Result<&[Json; N], String> {
        let v = self.arr()?;
        v.try_into()
            .map_err(|_| format!("expected an array of {N}, got {} elements", v.len()))
    }
}

struct Reader<'a> {
    s: &'a str,
    /// Always on a char boundary of `s`: it advances over ASCII bytes or
    /// whole runs of scalars only.
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    /// Skip whitespace; then the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.s[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Skip whitespace; then consume `tok` if it comes next.
    fn take(&mut self, tok: &str) -> bool {
        self.peek();
        let hit = self.s[self.pos..].starts_with(tok);
        self.pos += if hit { tok.len() } else { 0 };
        hit
    }

    fn eat(&mut self, tok: &str) -> Result<(), String> {
        match self.take(tok) {
            true => Ok(()),
            false => Err(self.err(&format!("expected `{tok}`"))),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        Ok(match self.peek() {
            Some(b'{') => {
                let mut out = Vec::new();
                self.list("{", "}", |p| {
                    let key = p.string()?;
                    p.eat(":")?;
                    out.push((key, p.value()?));
                    Ok(())
                })?;
                Json::Obj(out)
            }
            Some(b'[') => {
                let mut out = Vec::new();
                self.list("[", "]", |p| {
                    out.push(p.value()?);
                    Ok(())
                })?;
                Json::Arr(out)
            }
            Some(b'"') => Json::Str(self.string()?),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true))?,
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false))?,
            Some(b'n') => self.eat("null").map(|()| Json::Null)?,
            Some(c) if c.is_ascii_digit() => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        })
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn list(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        let mut first = true;
        while !self.take(close) {
            if !std::mem::take(&mut first) {
                self.eat(",")?;
            }
            item(self)?;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let rest = &self.s[self.pos..];
        let (digits, after) = rest.split_at(
            rest.find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len()),
        );
        self.pos += digits.len();
        if after.starts_with(['.', 'e', 'E', '-', '+'])
            || (digits.len() > 1 && digits.starts_with('0'))
        {
            return Err(self.err("numbers are unsigned integers only, no leading zeros"));
        }
        digits
            .parse()
            .map(Json::Num)
            .map_err(|_| self.err("number does not fit in u64"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // The run of characters that stand for themselves.
            let rest = &self.s[self.pos..];
            let run = rest.find(|c| c < ' ' || c == '"' || c == '\\');
            let run = run.ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match rest.as_bytes()[run] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => out.push(
                    self.escape()
                        .ok_or_else(|| self.err("unsupported string escape"))?,
                ),
                _ => return Err(self.err("unescaped control character")),
            }
        }
    }

    /// The escape at `pos` (a `\`), provided the escaper writes its
    /// character as exactly these bytes; advances past it.
    fn escape(&mut self) -> Option<char> {
        let rest = &self.s[self.pos..];
        let text = rest.get(..if rest.starts_with("\\u") { 6 } else { 2 })?;
        let c = match text.as_bytes()[1] {
            b'"' => '"',
            b'\\' => '\\',
            b'n' => '\n',
            b't' => '\t',
            b'u' => char::from_u32(u32::from_str_radix(&text[2..], 16).ok()?)?,
            _ => return None,
        };
        let mut canonical = String::new();
        escape_char(&mut canonical, c);
        (canonical == text).then(|| {
            self.pos += text.len();
            c
        })
    }
}

// ----------------------------------------------------------------------
// Flow-key labels
// ----------------------------------------------------------------------

/// Render a flow key as `a.b.c.d:p>e.f.g.h:q`, every key in full (the
/// all-zero one too): the checkpoint's form, which [`parse_key_label`]
/// reads back.
pub fn key_label(key: &FlowKey) -> String {
    let [a, b, c, d] = key.src_ip;
    let [e, f, g, h] = key.dst_ip;
    format!(
        "{a}.{b}.{c}.{d}:{sp}>{e}.{f}.{g}.{h}:{dp}",
        sp = key.src_port,
        dp = key.dst_port
    )
}

/// Parse a [`key_label`]-formatted flow key.
pub fn parse_key_label(label: &str) -> Result<FlowKey, String> {
    let bad = || format!("malformed flow-key label `{label}`");
    let (src, dst) = label.split_once('>').ok_or_else(bad)?;
    let endpoint = |s: &str| -> Result<([u8; 4], u16), String> {
        let (ip, port) = s.split_once(':').ok_or_else(bad)?;
        let mut octets = [0u8; 4];
        let mut it = ip.split('.');
        for o in &mut octets {
            *o = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
        }
        if it.next().is_some() {
            return Err(bad());
        }
        Ok((octets, port.parse().map_err(|_| bad())?))
    };
    let (src_ip, src_port) = endpoint(src)?;
    let (dst_ip, dst_port) = endpoint(dst)?;
    Ok(FlowKey {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_label_round_trips() {
        let k = FlowKey {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 1, 2],
            src_port: 40_000,
            dst_port: 80,
        };
        assert_eq!(key_label(&k), "10.0.0.1:40000>10.0.1.2:80");
        assert_eq!(parse_key_label(&key_label(&k)).unwrap(), k);
        // The all-zero key is written in full, not as the event log's `-`.
        let zero = crate::NO_FLOW;
        assert_eq!(key_label(&zero), "0.0.0.0:0>0.0.0.0:0");
        assert_eq!(parse_key_label(&key_label(&zero)).unwrap(), zero);
        for bad in ["", "10.0.0.1:1", "a.b.c.d:1>e.f.g.h:2", "1.2.3:4>5.6.7.8:9"] {
            assert!(parse_key_label(bad).is_err(), "accepted `{bad}`");
        }
    }
}
