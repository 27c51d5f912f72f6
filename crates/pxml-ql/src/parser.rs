//! Recursive-descent parser for the query language.

use crate::ast::{PathText, ProjectKind, Query};
use crate::error::{QlError, Result};
use crate::lexer::{lex, Tok};

/// Parses one query into an AST over owned names.
pub fn parse(input: &str) -> Result<Query> {
    parse_borrowed(input).map(Query::into_owned)
}

/// Parses one query into an AST whose names are slices of `input`:
/// nothing is copied, so a caller that only resolves the names (the
/// batch and serve translation) allocates just the token and path
/// vectors.
pub fn parse_borrowed(input: &str) -> Result<Query<&str>> {
    let toks = lex(input)?;
    let mut p = P { toks, pos: 0 };
    let q = p.query()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input after query");
    }
    Ok(q)
}

struct P<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(QlError::Parse { position: self.pos, message: message.into() })
    }

    fn peek_word(&self) -> Option<&'a str> {
        match self.toks.get(self.pos) {
            Some(&Tok::Word(w)) => Some(w),
            _ => None,
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_word().is_some_and(|w| w.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<&'a str> {
        match self.toks.get(self.pos).and_then(Tok::as_name) {
            Some(n) => {
                self.pos += 1;
                Ok(n)
            }
            None => self.err("expected a name"),
        }
    }

    fn expect(&mut self, want: &Tok<'_>, what: &str) -> Result<()> {
        if self.toks.get(self.pos) == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn path(&mut self) -> Result<PathText<&'a str>> {
        let mut segments = vec![self.name()?];
        while self.toks.get(self.pos) == Some(&Tok::Dot) {
            self.pos += 1;
            segments.push(self.name()?);
        }
        PathText::new(segments).ok_or(QlError::Parse {
            position: self.pos,
            message: "empty path".into(),
        })
    }

    fn value(&mut self) -> Result<pxml_core::Value> {
        match self.toks.get(self.pos).and_then(Tok::as_value) {
            Some(v) => {
                self.pos += 1;
                Ok(v)
            }
            None => self.err("expected a literal value"),
        }
    }

    fn query(&mut self) -> Result<Query<&'a str>> {
        if self.eat_keyword("PROJECT") {
            let kind = if self.eat_keyword("SINGLE") {
                ProjectKind::Single
            } else if self.eat_keyword("DESCENDANT") {
                ProjectKind::Descendant
            } else {
                self.eat_keyword("ANCESTOR");
                ProjectKind::Ancestor
            };
            return Ok(Query::Project { kind, path: self.path()? });
        }
        if self.eat_keyword("SELECT") {
            if self.eat_keyword("VALUE") {
                let path = self.path()?;
                let object = if self.toks.get(self.pos) == Some(&Tok::At) {
                    self.pos += 1;
                    Some(self.name()?)
                } else {
                    None
                };
                self.expect(&Tok::Eq, "'='")?;
                let value = self.value()?;
                return Ok(Query::SelectValue { path, object, value });
            }
            let path = self.path()?;
            self.expect(&Tok::Eq, "'='")?;
            let object = self.name()?;
            return Ok(Query::SelectObject { path, object });
        }
        if self.eat_keyword("POINT") {
            let object = self.name()?;
            if !self.eat_keyword("IN") {
                return self.err("expected IN");
            }
            return Ok(Query::Point { object, path: self.path()? });
        }
        if self.eat_keyword("EXISTS") {
            return Ok(Query::Exists { path: self.path()? });
        }
        if self.eat_keyword("CHAIN") {
            let path = self.path()?;
            let mut objects = vec![path.root];
            objects.extend(path.labels);
            if objects.len() < 2 {
                return self.err("a chain needs at least two objects");
            }
            return Ok(Query::Chain { objects });
        }
        if self.eat_keyword("PROB") {
            return Ok(Query::Prob { object: self.name()? });
        }
        if self.eat_keyword("WORLDS") {
            let top = if self.eat_keyword("TOP") {
                match self.toks.get(self.pos) {
                    Some(Tok::Int(n)) if *n > 0 => {
                        self.pos += 1;
                        Some(*n as usize)
                    }
                    _ => return self.err("expected a positive integer after TOP"),
                }
            } else {
                None
            };
            return Ok(Query::Worlds { top });
        }
        if self.eat_keyword("RENDER") {
            return Ok(Query::Render);
        }
        self.err("expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_core::Value;

    #[test]
    fn parses_projections() {
        assert_eq!(
            parse("PROJECT R.book.author").unwrap(),
            Query::Project {
                kind: ProjectKind::Ancestor,
                path: PathText {
                    root: "R".into(),
                    labels: vec!["book".into(), "author".into()]
                },
            }
        );
        assert!(matches!(
            parse("project single R.book").unwrap(),
            Query::Project { kind: ProjectKind::Single, .. }
        ));
        assert!(matches!(
            parse("PROJECT DESCENDANT R.book").unwrap(),
            Query::Project { kind: ProjectKind::Descendant, .. }
        ));
    }

    #[test]
    fn parses_selections() {
        assert_eq!(
            parse("SELECT R.book = B1").unwrap(),
            Query::SelectObject {
                path: PathText { root: "R".into(), labels: vec!["book".into()] },
                object: "B1".into(),
            }
        );
        assert_eq!(
            parse("SELECT VALUE R.book.title = \"VQDB\"").unwrap(),
            Query::SelectValue {
                path: PathText {
                    root: "R".into(),
                    labels: vec!["book".into(), "title".into()]
                },
                object: None,
                value: Value::str("VQDB"),
            }
        );
        assert_eq!(
            parse("SELECT VALUE R.book.title @ T1 = \"Lore\"").unwrap(),
            Query::SelectValue {
                path: PathText {
                    root: "R".into(),
                    labels: vec!["book".into(), "title".into()]
                },
                object: Some("T1".into()),
                value: Value::str("Lore"),
            }
        );
    }

    #[test]
    fn parses_probability_queries() {
        assert_eq!(
            parse("POINT A1 IN R.book.author").unwrap(),
            Query::Point {
                object: "A1".into(),
                path: PathText {
                    root: "R".into(),
                    labels: vec!["book".into(), "author".into()]
                },
            }
        );
        assert!(matches!(parse("EXISTS R.book").unwrap(), Query::Exists { .. }));
        assert_eq!(
            parse("CHAIN R.B1.A1").unwrap(),
            Query::Chain { objects: vec!["R".into(), "B1".into(), "A1".into()] }
        );
        assert_eq!(parse("PROB A1").unwrap(), Query::Prob { object: "A1".into() });
    }

    #[test]
    fn parses_worlds_and_render() {
        assert_eq!(parse("WORLDS").unwrap(), Query::Worlds { top: None });
        assert_eq!(parse("WORLDS TOP 5").unwrap(), Query::Worlds { top: Some(5) });
        assert_eq!(parse("RENDER").unwrap(), Query::Render);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("").is_err());
        assert!(parse("SELECT R.book").is_err()); // missing = o
        assert!(parse("POINT A1 R.book").is_err()); // missing IN
        assert!(parse("CHAIN R").is_err()); // too short
        assert!(parse("WORLDS TOP 0").is_err());
        assert!(parse("RENDER extra").is_err());
        assert!(parse("FROBNICATE x").is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("exists R.book").is_ok());
        assert!(parse("Worlds top 3").is_ok());
    }

    /// Malformed and well-formed lines keep the error text, token
    /// position and AST they had when tokens owned their text.
    #[test]
    fn lines_keep_their_errors_and_trees() {
        let golden: &[(&str, &str)] = &[
            ("", "parse error at token 0: expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER"),
            ("   ", "parse error at token 0: expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER"),
            ("POINT", "parse error at token 1: expected a name"),
            ("POINT A1", "parse error at token 2: expected IN"),
            ("POINT A1 R.book", "parse error at token 2: expected IN"),
            ("POINT A1 IN", "parse error at token 3: expected a name"),
            ("POINT A1 IN R.", "parse error at token 5: expected a name"),
            ("POINT A1 IN R..book", "parse error at token 5: expected a name"),
            ("EXISTS", "parse error at token 1: expected a name"),
            ("EXISTS R.book extra", "parse error at token 4: trailing input after query"),
            ("EXISTS 'unterminated", "parse error at token 2: unterminated quoted name"),
            ("EXISTS \"R.book", "parse error at token 2: unterminated quoted name"),
            ("EXISTS R.book#", "parse error at token 5: unexpected character '#'"),
            ("EXISTS R.bøøk#", "parse error at token 5: unexpected character '#'"),
            ("CHAIN R", "parse error at token 2: a chain needs at least two objects"),
            ("CHAIN R.", "parse error at token 3: expected a name"),
            ("SELECT R.book", "parse error at token 4: expected '='"),
            ("SELECT R.book = ", "parse error at token 5: expected a name"),
            ("SELECT VALUE R.book.title = ", "parse error at token 8: expected a literal value"),
            ("SELECT VALUE R.book.title @ = 1", "parse error at token 8: expected a name"),
            ("SELECT VALUE R.book.title = 1.2.3", "parse error at token 12: bad float \"1.2.3\": invalid float literal"),
            ("WORLDS TOP 0", "parse error at token 2: expected a positive integer after TOP"),
            ("WORLDS TOP -1", "parse error at token 2: expected a positive integer after TOP"),
            ("WORLDS TOP x", "parse error at token 2: expected a positive integer after TOP"),
            ("EXISTS 12e", "parse error at token 2: bad float \"12e\": invalid float literal"),
            ("EXISTS 99999999999999999999", "parse error at token 2: bad integer \"99999999999999999999\": number too large to fit in target type"),
            ("EXISTS --", "parse error at token 2: bad integer \"--\": invalid digit found in string"),
            ("FROBNICATE x", "parse error at token 0: expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER"),
            ("RENDER extra", "parse error at token 1: trailing input after query"),
            ("PROJECT", "parse error at token 1: expected a name"),
            ("PROJECT SINGLE", "parse error at token 2: expected a name"),
            ("EXISTS R.book\t=", "parse error at token 4: trailing input after query"),
            ("POINT \u{3000}A1 IN R$", "parse error at token 8: unexpected character '$'"),
            ("EXISTS R.bo ok", "parse error at token 4: trailing input after query"),
            ("EXISTS R.book @", "parse error at token 4: trailing input after query"),
            ("EXISTS R$", "parse error at token 3: unexpected character '$'"),
            ("POINT 'A 1' IN R.\"bo.ok\".x", "ok Point { object: \"A 1\", path: PathText { root: \"R\", labels: [\"bo.ok\", \"x\"] } }"),
            ("SELECT VALUE R.t @ T1 = 'VQDB'", "ok SelectValue { path: PathText { root: \"R\", labels: [\"t\"] }, object: Some(\"T1\"), value: Str(\"VQDB\") }"),
            ("SELECT VALUE R.t = true", "ok SelectValue { path: PathText { root: \"R\", labels: [\"t\"] }, object: None, value: Bool(true) }"),
            ("CHAIN R.B1.A1", "ok Chain { objects: [\"R\", \"B1\", \"A1\"] }"),
            ("WORLDS TOP 3", "ok Worlds { top: Some(3) }"),
            ("exists R.book.title", "ok Exists { path: PathText { root: \"R\", labels: [\"book\", \"title\"] } }"),
            ("EXISTS R.0.5", "parse error at token 3: expected a name"),
            ("EXISTS 2.book", "parse error at token 1: expected a name"),
            ("SELECT VALUE R.t = -1e-3", "ok SelectValue { path: PathText { root: \"R\", labels: [\"t\"] }, object: None, value: Float(-0.001) }"),
            ("SELECT VALUE R.t = +7", "ok SelectValue { path: PathText { root: \"R\", labels: [\"t\"] }, object: None, value: Int(7) }"),
            ("EXISTS R.日本.x", "ok Exists { path: PathText { root: \"R\", labels: [\"日本\", \"x\"] } }"),
            ("POINT 'ü' IN R.ä", "ok Point { object: \"ü\", path: PathText { root: \"R\", labels: [\"ä\"] } }"),
            ("EXISTS R.x\u{a0}y", "parse error at token 4: trailing input after query"),
            ("EXISTS R.x\u{2028}", "ok Exists { path: PathText { root: \"R\", labels: [\"x\"] } }"),
            ("EXISTS R.①", "ok Exists { path: PathText { root: \"R\", labels: [\"①\"] } }"),
            ("EXISTS 1٣", "parse error at token 1: expected a name"),
            ("EXISTS R.a\u{301}b#", "parse error at token 5: unexpected character '\\u{301}'"),
            ("EXISTS R.x\u{b}", "ok Exists { path: PathText { root: \"R\", labels: [\"x\"] } }"),
            ("SELECT VALUE R.t = 1.5e+3x", "parse error at token 7: trailing input after query"),
        ];
        for &(line, want) in golden {
            let got = match parse(line) {
                Ok(q) => format!("ok {q:?}"),
                Err(e) => e.to_string(),
            };
            assert_eq!(got, want, "{line:?}");
        }
    }
}
