//! Minimal XML document model, writer and parser.
//!
//! Fuego Core messages are XML; this module provides just enough of XML
//! to build and round-trip event notifications with realistic wire sizes:
//! elements, attributes, text content and the five predefined entities.
//! No namespaces-as-semantics, comments, CDATA or DTDs — attributes named
//! `xmlns:*` are carried verbatim like any other attribute.

use std::error::Error;
use std::fmt;

/// An XML element: name, attributes, text and child elements.
///
/// ```
/// use fuego::xml::XmlElement;
/// let doc = XmlElement::new("item")
///     .attr("type", "temperature")
///     .child(XmlElement::new("value").text("14.0"));
/// let s = doc.to_xml();
/// let back = XmlElement::parse(&s).unwrap();
/// assert_eq!(back.find("value").unwrap().text_content(), "14.0");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Text content (concatenated, stored before children on write).
    pub text: String,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
}

/// Error from [`XmlElement::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseXmlError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for ParseXmlError {}

impl XmlElement {
    /// Creates an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: Vec::new(),
            text: String::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute, builder style.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Sets the text content, builder style.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Appends a child, builder style.
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// First direct child with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Value of an attribute, if present.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The element's own text content.
    pub fn text_content(&self) -> &str {
        &self.text
    }

    /// Serializes to a compact XML string.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialized size in bytes (what the wire-size models use): the
    /// length of [`XmlElement::to_xml`], counted without building it.
    pub fn wire_size(&self) -> usize {
        self.wire_size_with_children(0)
    }

    /// Serialized size of this element with further children appended
    /// after its own, `extra` printed bytes of them. Every element prints
    /// at least four bytes (`<a/>`), so `extra` is 0 only when there are
    /// none.
    pub(crate) fn wire_size_with_children(&self, extra: usize) -> usize {
        // `<name`, then ` key="value"` per attribute.
        let attributes: usize = self
            .attributes
            .iter()
            .map(|(k, v)| k.len() + escaped_len(v) + 4)
            .sum();
        let open = 1 + self.name.len() + attributes;
        let own: usize = self.children.iter().map(XmlElement::wire_size).sum();
        let children = own + extra;
        if self.text.is_empty() && children == 0 {
            return open + "/>".len();
        }
        // `>`, the text, the children, then `</name>`.
        open + 1 + escaped_len(&self.text) + children + self.name.len() + 3
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.text.is_empty() && self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for c in &self.children {
            c.write(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parses a single XML element (optionally preceded by an XML
    /// declaration and whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`ParseXmlError`] on malformed input, including mismatched
    /// or unterminated tags, bad entities and elements nested more than
    /// 128 deep.
    pub fn parse(input: &str) -> Result<XmlElement, ParseXmlError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        if p.peek_str("<?") {
            p.skip_until("?>")?;
            p.skip_ws();
        }
        let el = p.element()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document element"));
        }
        Ok(el)
    }
}

impl fmt::Display for XmlElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// The entity written in place of `c` in attribute values and text.
fn entity(c: char) -> Option<&'static str> {
    match c {
        '&' => Some("&amp;"),
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        '"' => Some("&quot;"),
        '\'' => Some("&apos;"),
        _ => None,
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match entity(c) {
            Some(e) => out.push_str(e),
            None => out.push(c),
        }
    }
}

/// Bytes [`escape_into`] writes for `s`. Only five ASCII characters are
/// rewritten, and no byte of a multi-byte UTF-8 character is ASCII, so
/// counting byte by byte is exact.
pub(crate) fn escaped_len(s: &str) -> usize {
    s.bytes()
        .map(|b| entity(char::from(b)).map_or(1, str::len))
        .sum()
}

/// Deepest element nesting [`XmlElement::parse`] accepts. Each level
/// costs a stack frame, so without a bound a hostile document could
/// overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Ancestors of the element being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseXmlError {
        ParseXmlError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_str(&self, s: &str) -> bool {
        self.bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(s.as_bytes()))
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseXmlError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseXmlError> {
        while self.pos < self.bytes.len() {
            if self.peek_str(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!("unterminated construct, expected '{end}'")))
    }

    fn name(&mut self) -> Result<String, ParseXmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = self.bytes.get(start..self.pos).unwrap_or_default();
        Ok(String::from_utf8_lossy(name).into_owned())
    }

    fn entity(&mut self) -> Result<char, ParseXmlError> {
        // positioned after '&'
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let ent = self.bytes.get(start..self.pos).unwrap_or_default();
                self.pos += 1;
                return match ent {
                    b"amp" => Ok('&'),
                    b"lt" => Ok('<'),
                    b"gt" => Ok('>'),
                    b"quot" => Ok('"'),
                    b"apos" => Ok('\''),
                    other => Err(self.err(format!(
                        "unknown entity &{};",
                        String::from_utf8_lossy(other)
                    ))),
                };
            }
            self.pos += 1;
        }
        Err(self.err("unterminated entity"))
    }

    /// The text from here up to the next byte `stop` accepts, or to the
    /// end. Every byte `stop` accepts is ASCII, which is never part of a
    /// multi-byte UTF-8 character, so the run is whole characters.
    fn run(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|b| !stop(b)) {
            self.pos += 1;
        }
        self.src.get(start..self.pos).unwrap_or_default()
    }

    fn quoted(&mut self) -> Result<String, ParseXmlError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            out.push_str(self.run(|b| matches!(b, b'"' | b'&')));
            match self.bump() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b'"') => return Ok(out),
                Some(_) => out.push(self.entity()?),
            }
        }
    }

    fn element(&mut self) -> Result<XmlElement, ParseXmlError> {
        self.expect_byte(b'<')?;
        let name = self.name()?;
        let mut el = XmlElement::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect_byte(b'>')?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.expect_byte(b'=')?;
                    self.skip_ws();
                    let value = self.quoted()?;
                    el.attributes.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // content
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated element <{}>", el.name))),
                Some(b'<') => {
                    if self.peek_str("</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != el.name {
                            return Err(
                                self.err(format!("mismatched </{close}> for <{}>", el.name))
                            );
                        }
                        self.skip_ws();
                        self.expect_byte(b'>')?;
                        return Ok(el);
                    }
                    if self.depth == MAX_DEPTH {
                        return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
                    }
                    self.depth += 1;
                    let child = self.element()?;
                    self.depth -= 1;
                    el.children.push(child);
                }
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.entity()?;
                    el.text.push(c);
                }
                Some(_) => {
                    let text = self.run(|b| matches!(b, b'<' | b'&'));
                    // Whitespace-only text between children is dropped.
                    if el.children.is_empty() {
                        el.text.push_str(text);
                    } else {
                        el.text
                            .extend(text.chars().filter(|c| !c.is_ascii_whitespace()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_xml() {
        let el = XmlElement::new("a")
            .attr("k", "v")
            .child(XmlElement::new("b").text("hé中"))
            .child(XmlElement::new("c"));
        assert_eq!(el.to_xml(), r#"<a k="v"><b>hé中</b><c/></a>"#);
        assert_eq!(el.wire_size(), el.to_xml().len());
    }

    #[test]
    fn escapes_special_characters() {
        let el = XmlElement::new("t")
            .attr("q", "a\"b'")
            .text("1 < 2 & 3 > 0");
        let s = el.to_xml();
        assert_eq!(s, r#"<t q="a&quot;b&apos;">1 &lt; 2 &amp; 3 &gt; 0</t>"#);
        assert_eq!(el.wire_size(), s.len());
        let back = XmlElement::parse(&s).unwrap();
        assert_eq!(back.attribute("q"), Some("a\"b'"));
        assert_eq!(back.text_content(), "1 < 2 & 3 > 0");
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = XmlElement::new("notification")
            .attr("id", "42")
            .child(
                XmlElement::new("routing")
                    .child(XmlElement::new("sender").text("node1"))
                    .child(XmlElement::new("topic").text("cxt/temperature")),
            )
            .child(XmlElement::new("body").child(XmlElement::new("item").attr("t", "temp")));
        let back = XmlElement::parse(&doc.to_xml()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_declaration_and_whitespace() {
        let el = XmlElement::parse("<?xml version=\"1.0\"?>\n  <root>\n  <a/>  </root>").unwrap();
        assert_eq!(el.name, "root");
        assert_eq!(el.children.len(), 1);
    }

    #[test]
    fn find_helpers() {
        let doc = XmlElement::new("r")
            .child(XmlElement::new("x").text("1"))
            .child(XmlElement::new("x").text("2"))
            .child(XmlElement::new("y").text("3"));
        assert_eq!(doc.find("y").unwrap().text_content(), "3");
        assert_eq!(doc.find("x").unwrap().text_content(), "1");
        assert!(doc.find("z").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(XmlElement::parse("<a>").is_err());
        assert!(XmlElement::parse("<a></b>").is_err());
        assert!(XmlElement::parse("<a>&bogus;</a>").is_err());
        assert!(XmlElement::parse("<a/><b/>").is_err());
        assert!(XmlElement::parse("no xml here").is_err());
        let err = XmlElement::parse("<a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!(
            "{}{}",
            "<a>".repeat(MAX_DEPTH + 1),
            "</a>".repeat(MAX_DEPTH + 1)
        );
        assert!(XmlElement::parse(&ok).is_ok());
        let deep = "<a>".repeat(10_000);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || XmlElement::parse(&deep))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread panicked");
        let err = res.expect_err("10,000 levels must be refused");
        assert!(err.message.contains("nested deeper than 128"), "{err}");
    }

    #[test]
    fn parses_multi_byte_text_and_attributes() {
        let el = XmlElement::parse(r#"<a k="é&amp;中"><b/> 中 é </a>"#).unwrap();
        assert_eq!(el.attribute("k"), Some("é&中"));
        assert_eq!(el.text_content(), "中é");
        let back = XmlElement::parse(r#"<a k="é">中</a>"#).unwrap();
        assert_eq!(back.attribute("k"), Some("é"));
        assert_eq!(back.text_content(), "中");
    }

    #[test]
    fn self_closing_with_attributes() {
        let el = XmlElement::parse(r#"<ping from="a" to="b"/>"#).unwrap();
        assert_eq!(el.attribute("from"), Some("a"));
        assert_eq!(el.attribute("to"), Some("b"));
        assert!(el.children.is_empty());
    }
}
