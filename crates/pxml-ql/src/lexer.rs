//! Tokeniser for the query language.
//!
//! Tokens borrow their text from the query line: a name is a slice of
//! the input, never a copy, so resolving a query allocates only the
//! token vector.

use pxml_core::Value;

use crate::error::{QlError, Result};

/// A query token, borrowing its text from the input line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Bare word (keyword or name).
    Word(&'a str),
    /// Quoted name (allows dots/spaces inside names).
    Quoted(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `@`
    At,
}

impl<'a> Tok<'a> {
    /// The token as a name, if it is one.
    pub fn as_name(&self) -> Option<&'a str> {
        match *self {
            Tok::Word(w) | Tok::Quoted(w) => Some(w),
            _ => None,
        }
    }

    /// The token as a literal value, if it is one. Bare `true`/`false`
    /// become booleans; quoted strings become string values.
    pub fn as_value(&self) -> Option<Value> {
        match *self {
            Tok::Int(i) => Some(Value::Int(i)),
            Tok::Float(x) => Some(Value::Float(x)),
            Tok::Quoted(s) => Some(Value::str(s)),
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => Some(Value::Bool(true)),
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => Some(Value::Bool(false)),
            _ => None,
        }
    }
}

/// Tokenises a query string. An error's position counts the tokens
/// and whitespace characters before it.
///
/// The scan runs over bytes: ASCII (every keyword, digit and
/// punctuation mark) is classified byte by byte, and only a non-ASCII
/// byte decodes its character for the Unicode whitespace and
/// alphanumeric tests.
pub fn lex(input: &str) -> Result<Vec<Tok<'_>>> {
    let bytes = input.as_bytes();
    // The character starting at byte `i`, a character boundary.
    let char_at = |i: usize| input[i..].chars().next().unwrap_or_default();
    let mut out = Vec::new();
    let (mut i, mut pos) = (0usize, 0usize);
    while let Some(&b) = bytes.get(i) {
        let c = if b.is_ascii() { char::from(b) } else { char_at(i) };
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '@' => {
                out.push(Tok::At);
                i += 1;
            }
            '"' | '\'' => {
                // No byte of a multi-byte character is an ASCII quote.
                let body = i + 1;
                let Some(len) = bytes[body..].iter().position(|&q| q == b) else {
                    return Err(QlError::Parse {
                        position: pos,
                        message: "unterminated quoted name".into(),
                    });
                };
                out.push(Tok::Quoted(&input[body..body + len]));
                i = body + len + 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                let mut is_float = false;
                while let Some(&d) = bytes.get(i) {
                    match d {
                        b'0'..=b'9' | b'-' | b'+' => {}
                        b'e' | b'E' => is_float = true,
                        // A dot is a path separator unless followed by a
                        // digit (allowing `0.5` but keeping `R.book`).
                        b'.' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => is_float = true,
                        _ => break,
                    }
                    i += 1;
                }
                let text = &input[start..i];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|e| QlError::Parse {
                        position: pos,
                        message: format!("bad float {text:?}: {e}"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|e| QlError::Parse {
                        position: pos,
                        message: format!("bad integer {text:?}: {e}"),
                    })?)
                };
                out.push(tok);
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                i += c.len_utf8();
                while let Some(&w) = bytes.get(i) {
                    let c = if w.is_ascii() { char::from(w) } else { char_at(i) };
                    if !(c.is_alphanumeric() || c == '_') {
                        break;
                    }
                    i += c.len_utf8();
                }
                out.push(Tok::Word(&input[start..i]));
            }
            other => {
                return Err(QlError::Parse {
                    position: pos,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
        pos += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_words_dots_and_eq() {
        let toks = lex("SELECT R.book = B1").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Word("SELECT"),
                Tok::Word("R"),
                Tok::Dot,
                Tok::Word("book"),
                Tok::Eq,
                Tok::Word("B1"),
            ]
        );
    }

    #[test]
    fn numbers_vs_paths() {
        assert_eq!(lex("0.5").unwrap(), vec![Tok::Float(0.5)]);
        assert_eq!(
            lex("2.book").unwrap(),
            vec![Tok::Int(2), Tok::Dot, Tok::Word("book")]
        );
        assert_eq!(lex("1e-3").unwrap(), vec![Tok::Float(1e-3)]);
    }

    #[test]
    fn quoted_names_allow_special_characters() {
        let toks = lex("POINT \"odd name\" IN R.x").unwrap();
        assert_eq!(toks[1], Tok::Quoted("odd name"));
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn value_conversion() {
        assert_eq!(Tok::Int(3).as_value(), Some(Value::Int(3)));
        assert_eq!(Tok::Word("true").as_value(), Some(Value::Bool(true)));
        assert_eq!(Tok::Quoted("VQDB").as_value(), Some(Value::str("VQDB")));
        assert_eq!(Tok::Dot.as_value(), None);
    }
}
