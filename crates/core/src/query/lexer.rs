//! Tokenizer for the query language.

use std::fmt;

/// A lexical token with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds. Keywords are recognized case-insensitively but carried
/// as distinct kinds; identifiers keep their original spelling.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TokenKind {
    Select,
    From,
    Where,
    Freshness,
    Duration,
    Every,
    Event,
    And,
    Or,
    Ident(String),
    Number(f64),
    LParen,
    RParen,
    Comma,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Lexing failure: offending offset and message.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LexError {
    pub offset: usize,
    pub message: String,
}

pub(crate) fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                tokens.push(Token { kind: TokenKind::LParen, offset: i });
                i += 1;
            }
            b')' => {
                tokens.push(Token { kind: TokenKind::RParen, offset: i });
                i += 1;
            }
            b',' => {
                tokens.push(Token { kind: TokenKind::Comma, offset: i });
                i += 1;
            }
            b'=' => {
                tokens.push(Token { kind: TokenKind::Eq, offset: i });
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Ne, offset: i });
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Le, offset: i });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { kind: TokenKind::Ne, offset: i });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Lt, offset: i });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Ge, offset: i });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Gt, offset: i });
                    i += 1;
                }
            }
            b'0'..=b'9' | b'.' | b'-' | b'+' => {
                let start = i;
                if matches!(b, b'-' | b'+') {
                    i += 1;
                }
                let mut seen_dot = false;
                while let Some(&c) = bytes.get(i) {
                    match c {
                        b'0'..=b'9' => i += 1,
                        b'.' if !seen_dot => {
                            seen_dot = true;
                            i += 1;
                        }
                        _ => break,
                    }
                }
                // Tokens start and end at ASCII bytes, so every cut is a
                // char boundary and `get` always succeeds.
                let text = input.get(start..i).unwrap_or_default();
                let n: f64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("bad number '{text}'"),
                })?;
                tokens.push(Token {
                    kind: TokenKind::Number(n),
                    offset: start,
                });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while bytes
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-'))
                {
                    i += 1;
                }
                let word = input.get(start..i).unwrap_or_default();
                let kind = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => TokenKind::Select,
                    "FROM" => TokenKind::From,
                    "WHERE" => TokenKind::Where,
                    "FRESHNESS" => TokenKind::Freshness,
                    "DURATION" => TokenKind::Duration,
                    "EVERY" => TokenKind::Every,
                    "EVENT" => TokenKind::Event,
                    "AND" => TokenKind::And,
                    "OR" => TokenKind::Or,
                    _ => TokenKind::Ident(word.to_owned()),
                };
                tokens.push(Token { kind, offset: start });
            }
            _ => {
                // Every arm above consumes ASCII bytes only, so `i` starts
                // a character: quote that character, not its first byte.
                let c = input.get(i..).and_then(|rest| rest.chars().next());
                return Err(LexError {
                    offset: i,
                    message: format!(
                        "unexpected character '{}'",
                        c.unwrap_or(char::REPLACEMENT_CHARACTER)
                    ),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_case_insensitively() {
        assert_eq!(
            kinds("select FROM Where freshness DURATION every EVENT and OR"),
            vec![
                TokenKind::Select,
                TokenKind::From,
                TokenKind::Where,
                TokenKind::Freshness,
                TokenKind::Duration,
                TokenKind::Every,
                TokenKind::Event,
                TokenKind::And,
                TokenKind::Or,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("= != < <= > >= <>"),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Ne,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_idents() {
        assert_eq!(
            kinds("adHocNetwork(10,3) 0.2 -5"),
            vec![
                TokenKind::Ident("adHocNetwork".into()),
                TokenKind::LParen,
                TokenKind::Number(10.0),
                TokenKind::Comma,
                TokenKind::Number(3.0),
                TokenKind::RParen,
                TokenKind::Number(0.2),
                TokenKind::Number(-5.0),
            ]
        );
    }

    #[test]
    fn offsets_point_at_tokens() {
        let toks = lex("SELECT x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("SELECT #").is_err());
        assert!(lex("a ! b").is_err());
        let err = lex("DURATION .").unwrap_err();
        assert!(err.message.contains("bad number"), "{err:?}");
    }

    #[test]
    fn quotes_a_two_byte_character_whole() {
        let err = lex("SELECT é").unwrap_err();
        assert_eq!(err.offset, 7);
        assert_eq!(err.message, "unexpected character 'é'");
    }

    #[test]
    fn quotes_a_three_byte_character_whole() {
        let err = lex("SELECT temp WHERE accuracy=中 DURATION 1 hour").unwrap_err();
        assert_eq!(err.offset, 27);
        assert_eq!(err.message, "unexpected character '中'");
    }
}
