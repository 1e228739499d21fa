//! The Graphviz DOT trace parser and writer.
//!
//! Supported subset (the shape dslab-dag and the WfCommons `wfformat`
//! converters emit):
//!
//! ```dot
//! digraph cybershake {
//!   task0 [size="5e9"];          // flops, or runtime="5.0" (seconds)
//!   task0 -> task1 [size="1e6"]; // bytes
//! }
//! ```
//!
//! Node statements declare tasks (`size` = flops, or `runtime` seconds ×
//! [`REF_SPEED`]; `label` and other attributes are
//! ignored). Edge statements declare dependencies; chains
//! (`a -> b -> c`) expand to consecutive edges and the optional `size`
//! attribute (bytes) applies to every edge of the chain. Nodes first seen
//! inside an edge statement are created with zero work. `strict` is
//! accepted; undirected graphs, subgraphs and port syntax are rejected.
//! Comments: `//`, `#`, and `/* … */`.

use super::{ParseError, TraceBuilder, TraceDag, REF_SPEED};

/// Parses a DOT digraph. `fallback_name` names the trace when the graph
/// is anonymous.
pub fn parse_dot(input: &str, fallback_name: &str) -> Result<TraceDag, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
    };

    p.eat_keyword("strict"); // optional
    if !p.eat_keyword("digraph") {
        return Err(p.error("expected 'digraph'"));
    }
    let name = match p.peek() {
        Some(Token::Id(_)) => match p.next_token() {
            Some(Token::Id(s)) => s.clone(),
            _ => unreachable!("peeked an identifier"),
        },
        _ => fallback_name.to_string(),
    };
    p.expect(&Token::OpenBrace)?;

    let mut builder = TraceBuilder::new();
    loop {
        match p.peek() {
            None => return Err(p.error("unexpected end of input (missing '}')")),
            Some(Token::CloseBrace) => {
                p.pos += 1;
                break;
            }
            Some(Token::Semi) => {
                p.pos += 1; // stray separator
            }
            Some(Token::Id(_)) => parse_statement(&mut p, &mut builder)?,
            Some(other) => {
                return Err(p.error(&format!("unexpected token {other:?} in statement position")))
            }
        }
    }
    if p.peek().is_some() {
        return Err(p.error("content after the closing '}'"));
    }
    builder.finish(name)
}

/// One statement: `id [attrs];` (node) or `id -> id (-> id)* [attrs];`.
fn parse_statement(p: &mut Parser<'_>, builder: &mut TraceBuilder) -> Result<(), ParseError> {
    let first = p.identifier()?;
    if matches!(p.peek(), Some(Token::Arrow)) {
        // Edge chain.
        let mut chain = vec![builder.get_or_create_task(&first)?];
        while matches!(p.peek(), Some(Token::Arrow)) {
            p.pos += 1;
            let next = p.identifier()?;
            chain.push(builder.get_or_create_task(&next)?);
        }
        let attrs = parse_attr_list(p)?;
        let mut bytes = 0.0;
        for (key, value) in &attrs {
            if key == "size" {
                bytes = parse_numeric(p, key, value)?;
            }
        }
        for pair in chain.windows(2) {
            builder.add_edge(pair[0], pair[1], bytes)?;
        }
    } else {
        // Node statement: keywords reserved by DOT cannot be node ids.
        if matches!(
            first.as_str(),
            "graph" | "digraph" | "subgraph" | "node" | "edge"
        ) {
            return Err(p.error(&format!("unsupported DOT construct '{first}'")));
        }
        let id = builder.get_or_create_task(&first)?;
        let attrs = parse_attr_list(p)?;
        for (key, value) in &attrs {
            match key.as_str() {
                "size" => builder.set_task_flops(id, parse_numeric(p, key, value)?)?,
                "runtime" => {
                    builder.set_task_flops(id, parse_numeric(p, key, value)? * REF_SPEED)?
                }
                _ => {} // label, shape, … — ignored
            }
        }
    }
    if matches!(p.peek(), Some(Token::Semi)) {
        p.pos += 1;
    }
    Ok(())
}

/// `[ key = value (, | ;)? … ]`, possibly absent, possibly repeated
/// (`a [x=1] [y=2]` is legal DOT).
fn parse_attr_list(p: &mut Parser<'_>) -> Result<Vec<(String, String)>, ParseError> {
    let mut attrs = Vec::new();
    while matches!(p.peek(), Some(Token::OpenBracket)) {
        p.pos += 1;
        loop {
            match p.peek() {
                Some(Token::CloseBracket) => {
                    p.pos += 1;
                    break;
                }
                Some(Token::Comma) | Some(Token::Semi) => p.pos += 1,
                Some(Token::Id(_)) => {
                    let key = p.identifier()?;
                    p.expect(&Token::Equals)?;
                    let value = p.identifier()?;
                    attrs.push((key, value));
                }
                Some(other) => {
                    return Err(p.error(&format!("unexpected token {other:?} in attribute list")))
                }
                None => return Err(p.error("unterminated attribute list")),
            }
        }
    }
    Ok(attrs)
}

fn parse_numeric(p: &Parser<'_>, key: &str, value: &str) -> Result<f64, ParseError> {
    value
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| {
            p.error(&format!(
                "attribute {key}=\"{value}\" is not a finite number"
            ))
        })
}

/// Serializes a trace in the subset [`parse_dot`] reads. Numbers use
/// Rust's shortest-round-trip `f64` formatting, so parse → write → parse
/// is exact.
pub fn write_dot(trace: &TraceDag) -> String {
    let mut out = format!("digraph \"{}\" {{\n", escape(&trace.name));
    for v in 0..trace.task_count() {
        out.push_str(&format!(
            "  \"{}\" [size=\"{}\"];\n",
            escape(trace.task_name(v)),
            trace.tasks[v].flops
        ));
    }
    for e in 0..trace.edge_count() {
        let (u, v) = trace.dag.edge_endpoints(e);
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [size=\"{}\"];\n",
            escape(trace.task_name(u)),
            escape(trace.task_name(v)),
            trace.edge_bytes[e]
        ));
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    /// Bare identifier, number, or quoted string (quotes stripped,
    /// escapes decoded).
    Id(String),
    OpenBrace,
    CloseBrace,
    OpenBracket,
    CloseBracket,
    Equals,
    Comma,
    Semi,
    Arrow,
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let b = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut j = i + 2;
                loop {
                    if j + 1 >= b.len() {
                        return Err(ParseError::new(format!(
                            "dot: unterminated block comment at byte {i}"
                        )));
                    }
                    if b[j] == b'*' && b[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                }
                i = j + 2;
            }
            b'{' => {
                tokens.push(Token::OpenBrace);
                i += 1;
            }
            b'}' => {
                tokens.push(Token::CloseBrace);
                i += 1;
            }
            b'[' => {
                tokens.push(Token::OpenBracket);
                i += 1;
            }
            b']' => {
                tokens.push(Token::CloseBracket);
                i += 1;
            }
            b'=' => {
                tokens.push(Token::Equals);
                i += 1;
            }
            b',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            b';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            b'-' if b.get(i + 1) == Some(&b'>') => {
                tokens.push(Token::Arrow);
                i += 2;
            }
            b'-' if b.get(i + 1) == Some(&b'-') => {
                return Err(ParseError::new(format!(
                    "dot: undirected edge '--' at byte {i} (only digraphs are supported)"
                )));
            }
            b'"' => tokens.push(Token::Id(lex_quoted(b, &mut i)?)),
            c if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-' | b'+') => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || matches!(b[i], b'_' | b'.' | b'-' | b'+'))
                {
                    i += 1;
                }
                tokens.push(Token::Id(
                    std::str::from_utf8(&b[start..i]).unwrap().to_string(),
                ));
            }
            other => {
                return Err(ParseError::new(format!(
                    "dot: unexpected byte 0x{other:02x} at {i}"
                )))
            }
        }
    }
    Ok(tokens)
}

/// Lexes the quoted id opening at `b[*i]` and leaves `*i` past its
/// closing quote. DOT unescapes only `\"` and `\\`; other ASCII escapes
/// stay verbatim.
fn lex_quoted(b: &[u8], i: &mut usize) -> Result<String, ParseError> {
    *i += 1; // opening quote
    let mut s = String::new();
    loop {
        match b.get(*i) {
            None => {
                return Err(ParseError::new(
                    "dot: unterminated quoted string".to_string(),
                ))
            }
            Some(b'"') => {
                *i += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                match b.get(*i + 1) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(&c) if c.is_ascii() => {
                        s.push('\\');
                        s.push(c as char);
                    }
                    _ => {
                        return Err(ParseError::new(
                            "dot: invalid escape in quoted string".to_string(),
                        ))
                    }
                }
                *i += 2;
            }
            Some(_) => s.push_str(
                super::string_run(b, i)
                    .map_err(|_| ParseError::new("dot: invalid UTF-8".to_string()))?,
            ),
        }
    }
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next_token(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> ParseError {
        ParseError::new(format!("dot: {msg} (token #{})", self.pos))
    }

    fn expect(&mut self, token: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        match self.peek() {
            Some(Token::Id(s)) if s.eq_ignore_ascii_case(word) => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.next_token() {
            Some(Token::Id(s)) => Ok(s.clone()),
            other => Err(ParseError::new(format!(
                "dot: expected an identifier, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
        // a tiny workflow
        strict digraph tiny {
          a [size="2e9", label="extract"];
          b [runtime="4.0"];   # seconds
          c [size="1e9"]
          a -> b [size="1000"];
          b -> c [size="200"]; /* block comment */
          a -> c;
        }
    "#;

    #[test]
    fn parses_nodes_edges_and_chains() {
        let t = parse_dot(TINY, "fallback").unwrap();
        assert_eq!(t.name, "tiny");
        assert_eq!(t.task_count(), 3);
        assert_eq!(t.edge_count(), 3);
        let (a, b, c) = (
            t.task_id("a").unwrap(),
            t.task_id("b").unwrap(),
            t.task_id("c").unwrap(),
        );
        assert_eq!(t.tasks[a].flops, 2e9);
        assert_eq!(t.tasks[b].flops, 4.0 * REF_SPEED);
        assert_eq!(t.edge_bytes[t.dag.edge_between(a, b).unwrap()], 1000.0);
        assert_eq!(t.edge_bytes[t.dag.edge_between(a, c).unwrap()], 0.0);
    }

    #[test]
    fn chains_expand_and_share_the_size() {
        let t = parse_dot(r#"digraph { x [size="1"]; x -> y -> z [size="7"]; }"#, "t").unwrap();
        assert_eq!(t.task_count(), 3);
        assert_eq!(t.edge_count(), 2);
        assert!(t.edge_bytes.iter().all(|&b| b == 7.0));
        // y and z were auto-created with zero work.
        assert_eq!(t.tasks[t.task_id("z").unwrap()].flops, 0.0);
    }

    #[test]
    fn writer_roundtrips_exactly() {
        let t = parse_dot(TINY, "t").unwrap();
        let re = parse_dot(&write_dot(&t), "t").unwrap();
        assert_eq!(re.task_count(), t.task_count());
        assert_eq!(re.edge_count(), t.edge_count());
        for v in 0..t.task_count() {
            let rv = re.task_id(t.task_name(v)).unwrap();
            assert_eq!(re.tasks[rv].flops, t.tasks[v].flops);
        }
        for e in 0..t.edge_count() {
            let (u, v) = t.dag.edge_endpoints(e);
            let ru = re.task_id(t.task_name(u)).unwrap();
            let rv = re.task_id(t.task_name(v)).unwrap();
            assert_eq!(
                re.edge_bytes[re.dag.edge_between(ru, rv).unwrap()],
                t.edge_bytes[e]
            );
        }
    }

    #[test]
    fn quoted_names_and_escapes() {
        let t = parse_dot(r#"digraph "my graph" { "task \"one\"" [size="1"]; }"#, "t").unwrap();
        assert_eq!(t.name, "my graph");
        assert!(t.task_id("task \"one\"").is_some());
    }

    #[test]
    fn multibyte_names_next_to_escapes_roundtrip() {
        // 2-, 3- and 4-byte scalars on both sides of each escape.
        let name = "é\\ü\"€\\😀\"x😀é";
        let doc = format!("digraph g {{ \"{}\" [size=\"1\"]; }}", escape(name));
        let t = parse_dot(&doc, "t").unwrap();
        assert!(t.task_id(name).is_some());
        let re = parse_dot(&write_dot(&t), "t").unwrap();
        assert_eq!(re.task_name(0), name);
    }

    #[test]
    fn truncated_multibyte_sequence_errors() {
        for bad in [&b"\"a\xe2\x82"[..], b"\"\xf0\x9f\x98\"", b"\"\xc3"] {
            assert!(lex_quoted(bad, &mut 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn megabyte_quoted_id_lexes_in_linear_time() {
        let long = "é".repeat(1 << 19);
        let doc = format!("digraph g {{ \"{long}\" [size=\"1\"]; }}");
        let t0 = std::time::Instant::now();
        let t = parse_dot(&doc, "t").unwrap();
        assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
        assert_eq!(t.task_name(0), long);
    }

    #[test]
    fn malformed_documents_error() {
        for (bad, what) in [
            ("", "empty"),
            ("graph g { a -- b }", "undirected"),
            ("digraph g { a -- b; }", "undirected edge"),
            ("digraph g { a -> a [size=\"1\"]; }", "self-loop"),
            ("digraph g {", "unclosed brace"),
            ("digraph g { a [size=\"x\"]; }", "non-numeric size"),
            ("digraph g { a [size]; }", "attr without value"),
            ("digraph g { a [size=\"1\"] } trailing", "trailing tokens"),
            ("digraph g { subgraph s { a } }", "subgraph"),
            ("digraph g { a -> b -> a [size=\"1\"]; }", "cycle"),
            ("digraph g { }", "no tasks"),
            ("digraph g { a [size=\"0\"]; }", "zero total work"),
            ("digraph g { /* unterminated }", "unterminated comment"),
            ("digraph g { \"unterminated }", "unterminated string"),
        ] {
            assert!(parse_dot(bad, "t").is_err(), "{what}: {bad}");
        }
    }
}
