//! Recursive-descent parser for BluePrint rule files.
//!
//! The grammar is reconstructed from every listing in the paper:
//!
//! ```text
//! blueprint   := "blueprint" NAME view* "endblueprint"
//! view        := "view" NAME item* ["endview"]
//! item        := property | link_from | use_link | let | when
//! property    := "property" NAME "default" VALUE ["copy" | "move"]
//! link_from   := "link_from" NAME clause*
//! use_link    := "use_link" clause*
//! clause      := "move" | "copy" | "propagates" NAME ("," NAME)* | "type" NAME
//! let         := "let" NAME "=" expr
//! when        := "when" NAME "do" action (";" action)* "done"
//! action      := NAME "=" value
//!              | "exec" value value*
//!              | "notify" value
//!              | "post" NAME ("up"|"down") ["to" NAME] value*
//! value       := IDENT | INT | STRING | $VAR
//! expr        := and_expr ("or" and_expr)*
//! and_expr    := not_expr ("and" not_expr)*
//! not_expr    := "not" not_expr | cmp
//! cmp         := primary [("==" | "!=") primary]
//! primary     := "(" expr ")" | $VAR | IDENT | INT | STRING
//! ```
//!
//! Two deliberate liberalities, both needed to accept the paper's own
//! listings verbatim: `endview` is optional (the Section 3.4 listing omits it
//! after the `netlist` view), and link clauses may appear in any order
//! (`move propagates …` in the prose, `propagates … type … MOVE` in Fig. 3).

use damocles_meta::Direction;

use crate::lang::ast::{
    Action, Blueprint, Expr, LetDef, LinkDef, LinkSource, PropertyDef, RuleDef, Segment, Template,
    Transfer, ViewDef,
};
use crate::lang::diag::{ParseError, Span};
use crate::lang::lexer::lex;
use crate::lang::token::{Keyword, Token, TokenKind};

/// Parses a complete BluePrint source file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// # Example
///
/// ```
/// use blueprint_core::lang::parser::parse;
///
/// let bp = parse(r#"
///     blueprint demo
///     view HDL_model
///         property sim_result default bad
///         when hdl_sim do sim_result = $arg done
///     endview
///     endblueprint
/// "#)?;
/// assert_eq!(bp.name, "demo");
/// assert_eq!(bp.views.len(), 1);
/// # Ok::<(), blueprint_core::lang::diag::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Blueprint, ParseError> {
    let tokens = lex(source)?;
    Parser {
        tokens,
        pos: 0,
        open: 0,
    }
    .blueprint()
}

/// The deepest expression the parser builds: every `(`, `not`, `and`,
/// `or`, `==` and `!=` on the way from the root to a leaf counts one
/// level. Every later walk of an [`Expr`] (validation, compilation,
/// evaluation, drop) recurses once per level of its tree, so the cap
/// keeps one hostile blueprint from overflowing a thread's stack.
const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `(` and `not` levels open around the current token.
    open: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<Token, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected `{kw}`, found {}", self.peek_kind()),
                self.peek().span,
            ))
        }
    }

    /// An identifier in strict position (event names, property names).
    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(ParseError::new(
                format!("expected {what}, found {other}"),
                self.peek().span,
            )),
        }
    }

    /// A name that may also be a keyword (`view default`).
    fn expect_name(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().name_text() {
            Some(name) => {
                self.bump();
                Ok(name)
            }
            None => Err(ParseError::new(
                format!("expected {what}, found {}", self.peek_kind()),
                self.peek().span,
            )),
        }
    }

    // ------------------------------------------------------------------

    fn blueprint(&mut self) -> Result<Blueprint, ParseError> {
        let start = self.expect_kw(Keyword::Blueprint)?.span;
        let name = self.expect_name("blueprint name")?;
        let mut views = Vec::new();
        while self.at_kw(Keyword::View) {
            views.push(self.view()?);
        }
        let end = self.expect_kw(Keyword::Endblueprint)?.span;
        if !matches!(self.peek_kind(), TokenKind::Eof) {
            return Err(ParseError::new(
                format!("trailing input after `endblueprint`: {}", self.peek_kind()),
                self.peek().span,
            ));
        }
        Ok(Blueprint {
            name,
            views,
            span: start.merge(end),
        })
    }

    fn view(&mut self) -> Result<ViewDef, ParseError> {
        let start = self.expect_kw(Keyword::View)?.span;
        let name = self.expect_name("view name")?;
        let mut view = ViewDef::empty(name);
        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Property) => {
                    view.properties.push(self.property()?);
                }
                TokenKind::Keyword(Keyword::LinkFrom) => {
                    view.links.push(self.link(false)?);
                }
                TokenKind::Keyword(Keyword::UseLink) => {
                    view.links.push(self.link(true)?);
                }
                TokenKind::Keyword(Keyword::Let) => {
                    view.lets.push(self.let_def()?);
                }
                TokenKind::Keyword(Keyword::When) => {
                    view.rules.push(self.rule()?);
                }
                TokenKind::Keyword(Keyword::Endview) => {
                    let end = self.bump().span;
                    view.span = start.merge(end);
                    return Ok(view);
                }
                // `endview` omitted (as in the paper's own listing): the next
                // `view` or the closing `endblueprint` ends this view.
                TokenKind::Keyword(Keyword::View) | TokenKind::Keyword(Keyword::Endblueprint) => {
                    view.span = start.merge(self.peek().span);
                    return Ok(view);
                }
                other => {
                    return Err(ParseError::new(
                        format!("expected a view item or `endview`, found {other}"),
                        self.peek().span,
                    )
                    .with_hint(
                        "view items start with `property`, `link_from`, `use_link`, `let` or `when`",
                    ));
                }
            }
        }
    }

    fn property(&mut self) -> Result<PropertyDef, ParseError> {
        let start = self.expect_kw(Keyword::Property)?.span;
        let name = self.expect_ident("property name")?;
        self.expect_kw(Keyword::Default)?;
        let (default, vspan) = self.value_atom()?;
        let mut span = start.merge(vspan);
        let transfer = if self.at_kw(Keyword::Copy) {
            span = span.merge(self.bump().span);
            Transfer::Copy
        } else if self.at_kw(Keyword::Move) {
            span = span.merge(self.bump().span);
            Transfer::Move
        } else {
            Transfer::Create
        };
        Ok(PropertyDef {
            name,
            default,
            transfer,
            span,
        })
    }

    /// A bare value: identifier, integer or quoted string.
    fn value_atom(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                let span = self.bump().span;
                Ok((s, span))
            }
            TokenKind::Int(n) => {
                let span = self.bump().span;
                Ok((n.to_string(), span))
            }
            TokenKind::Str(s) => {
                let span = self.bump().span;
                Ok((Template::unescape_raw(&s), span))
            }
            other => Err(ParseError::new(
                format!("expected a value, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn link(&mut self, is_use: bool) -> Result<LinkDef, ParseError> {
        let start = self
            .expect_kw(if is_use {
                Keyword::UseLink
            } else {
                Keyword::LinkFrom
            })?
            .span;
        let source = if is_use {
            LinkSource::UseLink
        } else {
            LinkSource::View(self.expect_ident("source view name")?)
        };
        let mut def = LinkDef {
            source,
            transfer: Transfer::Create,
            propagates: Vec::new(),
            kind: None,
            span: start,
        };
        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Move) => {
                    def.span = def.span.merge(self.bump().span);
                    def.transfer = Transfer::Move;
                }
                TokenKind::Keyword(Keyword::Copy) => {
                    def.span = def.span.merge(self.bump().span);
                    def.transfer = Transfer::Copy;
                }
                TokenKind::Keyword(Keyword::Propagates) => {
                    self.bump();
                    loop {
                        let ev = self.expect_ident("event name")?;
                        def.propagates.push(ev);
                        if matches!(self.peek_kind(), TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                TokenKind::Keyword(Keyword::Type) => {
                    self.bump();
                    def.kind = Some(self.expect_ident("link type")?);
                }
                _ => break,
            }
        }
        def.span = def.span.merge(self.peek().span);
        Ok(def)
    }

    fn let_def(&mut self) -> Result<LetDef, ParseError> {
        let start = self.expect_kw(Keyword::Let)?.span;
        let name = self.expect_ident("property name")?;
        if !matches!(self.peek_kind(), TokenKind::Assign) {
            return Err(ParseError::new(
                format!(
                    "expected `=` in continuous assignment, found {}",
                    self.peek_kind()
                ),
                self.peek().span,
            ));
        }
        self.bump();
        let (expr, _) = self.expr()?;
        Ok(LetDef {
            name,
            expr,
            span: start.merge(self.peek().span),
        })
    }

    fn rule(&mut self) -> Result<RuleDef, ParseError> {
        let start = self.expect_kw(Keyword::When)?.span;
        let event = self.expect_ident("event name")?;
        self.expect_kw(Keyword::Do)?;
        let mut actions = vec![self.action()?];
        loop {
            if matches!(self.peek_kind(), TokenKind::Semi) {
                self.bump();
                // Tolerate a trailing `;` before `done`.
                if self.at_kw(Keyword::Done) {
                    break;
                }
                actions.push(self.action()?);
            } else {
                break;
            }
        }
        let end = self.expect_kw(Keyword::Done)?.span;
        Ok(RuleDef {
            event,
            actions,
            span: start.merge(end),
        })
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Keyword(Keyword::Exec) => {
                self.bump();
                let script = self.template_value("script name")?;
                let mut args = Vec::new();
                while self.at_template_value() {
                    args.push(self.template_value("script argument")?);
                }
                Ok(Action::Exec { script, args })
            }
            TokenKind::Keyword(Keyword::Notify) => {
                self.bump();
                let message = self.template_value("notification message")?;
                Ok(Action::Notify { message })
            }
            TokenKind::Keyword(Keyword::Post) => {
                self.bump();
                let event = self.expect_ident("event name")?;
                let direction = if self.eat_kw(Keyword::Up) {
                    Direction::Up
                } else if self.eat_kw(Keyword::Down) {
                    Direction::Down
                } else {
                    return Err(ParseError::new(
                        format!("expected `up` or `down`, found {}", self.peek_kind()),
                        self.peek().span,
                    ));
                };
                let to_view = if self.eat_kw(Keyword::To) {
                    Some(self.expect_ident("target view name")?)
                } else {
                    None
                };
                let mut args = Vec::new();
                while self.at_template_value() {
                    args.push(self.template_value("post argument")?);
                }
                Ok(Action::Post {
                    event,
                    direction,
                    to_view,
                    args,
                })
            }
            TokenKind::Ident(prop) => {
                self.bump();
                if !matches!(self.peek_kind(), TokenKind::Assign) {
                    return Err(ParseError::new(
                        format!("expected `=` after `{prop}`, found {}", self.peek_kind()),
                        self.peek().span,
                    )
                    .with_hint("actions are `prop = value`, `exec …`, `notify …` or `post …`"));
                }
                self.bump();
                let value = self.template_value("assigned value")?;
                Ok(Action::Assign { prop, value })
            }
            other => Err(ParseError::new(
                format!("expected an action, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn at_template_value(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Ident(_) | TokenKind::Int(_) | TokenKind::Str(_) | TokenKind::Var(_)
        ) && !self.next_is_assignment()
    }

    /// Lookahead: an identifier followed by `=` starts the next assignment
    /// action, not an argument (only relevant after a missing `;`, which we
    /// report as an error at the assignment).
    fn next_is_assignment(&self) -> bool {
        if !matches!(self.peek_kind(), TokenKind::Ident(_)) {
            return false;
        }
        matches!(
            self.tokens.get(self.pos + 1).map(|t| &t.kind),
            Some(TokenKind::Assign)
        )
    }

    fn template_value(&mut self, what: &str) -> Result<Template, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(Template::lit(s))
            }
            TokenKind::Int(n) => {
                self.bump();
                Ok(Template::lit(n.to_string()))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Template::parse_interpolated(&s))
            }
            TokenKind::Var(v) => {
                self.bump();
                Ok(Template {
                    segments: vec![Segment::Var(v)],
                })
            }
            other => Err(ParseError::new(
                format!("expected {what}, found {other}"),
                self.peek().span,
            )),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// An expression and the depth of its tree, counted as
    /// [`MAX_EXPR_DEPTH`] counts it.
    fn expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut depth) = self.and_expr()?;
        while self.at_kw(Keyword::Or) {
            let at = self.bump().span;
            let (rhs, rhs_depth) = self.and_expr()?;
            depth = deeper(depth.max(rhs_depth), at)?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn and_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut depth) = self.not_expr()?;
        while self.at_kw(Keyword::And) {
            let at = self.bump().span;
            let (rhs, rhs_depth) = self.not_expr()?;
            depth = deeper(depth.max(rhs_depth), at)?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn not_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        if self.at_kw(Keyword::Not) {
            let at = self.enter()?;
            let (inner, depth) = self.not_expr()?;
            self.open -= 1;
            return Ok((Expr::Not(Box::new(inner)), deeper(depth, at)?));
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<(Expr, usize), ParseError> {
        let (lhs, depth) = self.primary()?;
        let node = match self.peek_kind() {
            TokenKind::EqEq => Expr::Eq,
            TokenKind::NotEq => Expr::Ne,
            _ => return Ok((lhs, depth)),
        };
        let at = self.bump().span;
        let (rhs, rhs_depth) = self.primary()?;
        let depth = deeper(depth.max(rhs_depth), at)?;
        Ok((node(Box::new(lhs), Box::new(rhs)), depth))
    }

    /// Consumes a `(` or `not` and enters the level it opens, refusing
    /// the one past [`MAX_EXPR_DEPTH`] before descending into it: the
    /// descent itself recurses once per level.
    fn enter(&mut self) -> Result<Span, ParseError> {
        let at = self.bump().span;
        self.open = deeper(self.open, at)?;
        Ok(at)
    }

    fn primary(&mut self) -> Result<(Expr, usize), ParseError> {
        let leaf = match self.peek_kind().clone() {
            TokenKind::LParen => {
                let at = self.enter()?;
                let (inner, depth) = self.expr()?;
                self.open -= 1;
                if !matches!(self.peek_kind(), TokenKind::RParen) {
                    return Err(ParseError::new(
                        format!("expected `)`, found {}", self.peek_kind()),
                        self.peek().span,
                    ));
                }
                self.bump();
                return Ok((inner, deeper(depth, at)?));
            }
            TokenKind::Var(v) => Expr::Var(v),
            TokenKind::Ident(a) => Expr::Atom(a),
            TokenKind::Int(n) => Expr::Atom(n.to_string()),
            TokenKind::Str(s) => Expr::Str(Template::unescape_raw(&s)),
            other => {
                return Err(ParseError::new(
                    format!("expected an expression, found {other}"),
                    self.peek().span,
                ))
            }
        };
        self.bump();
        Ok((leaf, 0))
    }
}

/// One level below `depth`, or the positioned refusal past
/// [`MAX_EXPR_DEPTH`].
fn deeper(depth: usize, at: Span) -> Result<usize, ParseError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(ParseError::new(
            format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
            at,
        ));
    }
    Ok(depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_view(body: &str) -> ViewDef {
        let src = format!("blueprint t view X {body} endview endblueprint");
        parse(&src).unwrap().views.into_iter().next().unwrap()
    }

    #[test]
    fn parses_fig2_property_rule() {
        // Fig. 2: "view GDSII / property DRC default bad copy / endview"
        let bp =
            parse("blueprint f2 view GDSII property DRC default bad copy endview endblueprint")
                .unwrap();
        let prop = &bp.views[0].properties[0];
        assert_eq!(prop.name, "DRC");
        assert_eq!(prop.default, "bad");
        assert_eq!(prop.transfer, Transfer::Copy);
    }

    #[test]
    fn parses_fig3_link_rule_with_trailing_move() {
        // Fig. 3: "link_from NetList propagates OutOfDate type derive_from MOVE"
        let v = parse_view("link_from NetList propagates OutOfDate type derive_from MOVE");
        let link = &v.links[0];
        assert_eq!(link.source, LinkSource::View("NetList".into()));
        assert_eq!(link.propagates, vec!["OutOfDate"]);
        assert_eq!(link.kind.as_deref(), Some("derive_from"));
        assert_eq!(link.transfer, Transfer::Move);
    }

    #[test]
    fn parses_prose_order_link_rule() {
        // Prose: "link_from HDL_model move propagates outofdate type derived"
        let v = parse_view("link_from HDL_model move propagates outofdate type derived");
        let link = &v.links[0];
        assert_eq!(link.transfer, Transfer::Move);
        assert_eq!(link.kind.as_deref(), Some("derived"));
    }

    #[test]
    fn parses_use_link_and_event_list() {
        let v = parse_view("use_link move propagates outofdate\nlink_from schematic propagates nl_sim, outofdate type derived");
        assert_eq!(v.links[0].source, LinkSource::UseLink);
        assert_eq!(v.links[1].propagates, vec!["nl_sim", "outofdate"]);
    }

    #[test]
    fn parses_continuous_assignment() {
        let v = parse_view(
            "let state = ($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)",
        );
        let l = &v.lets[0];
        assert_eq!(l.name, "state");
        assert_eq!(
            l.expr.variables(),
            vec!["lvs_res", "nl_sim_res", "uptodate"]
        );
    }

    #[test]
    fn parses_multi_action_rule() {
        let v = parse_view(r#"when ckin do uptodate = true; post outofdate down done"#);
        let r = &v.rules[0];
        assert_eq!(r.event, "ckin");
        assert_eq!(r.actions.len(), 2);
        assert!(matches!(r.actions[0], Action::Assign { .. }));
        assert!(matches!(
            &r.actions[1],
            Action::Post {
                event,
                direction: Direction::Down,
                to_view: None,
                ..
            } if event == "outofdate"
        ));
    }

    #[test]
    fn parses_post_to_view() {
        let v = parse_view("when checkin do post behavioral_sim_ok down to VerilogNetList done");
        match &v.rules[0].actions[0] {
            Action::Post {
                event,
                direction,
                to_view,
                ..
            } => {
                assert_eq!(event, "behavioral_sim_ok");
                assert_eq!(*direction, Direction::Down);
                assert_eq!(to_view.as_deref(), Some("VerilogNetList"));
            }
            other => panic!("expected post, got {other:?}"),
        }
    }

    #[test]
    fn parses_exec_with_interpolated_arg() {
        let v = parse_view(r#"when ckin do exec netlister "$oid" done"#);
        match &v.rules[0].actions[0] {
            Action::Exec { script, args } => {
                assert!(script.is_literal());
                assert_eq!(args.len(), 1);
                assert_eq!(args[0].as_single_var(), Some("oid"));
            }
            other => panic!("expected exec, got {other:?}"),
        }
    }

    #[test]
    fn parses_notify() {
        let v =
            parse_view(r#"when checkin do notify "$owner: Your oid $OID has been modified" done"#);
        match &v.rules[0].actions[0] {
            Action::Notify { message } => {
                assert!(!message.is_literal());
            }
            other => panic!("expected notify, got {other:?}"),
        }
    }

    #[test]
    fn parses_assignment_with_interpolation_and_post_arg() {
        let v = parse_view(
            r#"when ckin do lvs_res = "$oid changed by $user"; post lvs down "$lvs_res" done"#,
        );
        assert_eq!(v.rules[0].actions.len(), 2);
    }

    #[test]
    fn view_default_is_allowed() {
        let bp =
            parse("blueprint t view default property uptodate default true endview endblueprint")
                .unwrap();
        assert_eq!(bp.views[0].name, "default");
    }

    #[test]
    fn endview_is_optional_like_the_papers_listing() {
        let bp = parse(
            "blueprint t view a property p default x view b property q default y endview endblueprint",
        )
        .unwrap();
        assert_eq!(bp.views.len(), 2);
        assert_eq!(bp.views[0].properties.len(), 1);
        assert_eq!(bp.views[1].properties.len(), 1);
    }

    #[test]
    fn empty_view_is_allowed() {
        // The paper's synth_lib view has an empty body.
        let bp = parse("blueprint t view synth_lib endview endblueprint").unwrap();
        assert!(bp.views[0].properties.is_empty());
    }

    #[test]
    fn trailing_semicolon_tolerated() {
        let v = parse_view("when ckin do uptodate = true; done");
        assert_eq!(v.rules[0].actions.len(), 1);
    }

    #[test]
    fn error_on_missing_do() {
        let err = parse("blueprint t view a when ckin uptodate = true done endview endblueprint")
            .unwrap_err();
        assert!(err.message.contains("`do`"));
    }

    #[test]
    fn error_on_bad_direction() {
        let err =
            parse("blueprint t view a when ckin do post x sideways done endview endblueprint")
                .unwrap_err();
        assert!(err.message.contains("up"));
    }

    #[test]
    fn error_on_trailing_input() {
        let err = parse("blueprint t endblueprint garbage").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn error_spans_point_at_problem() {
        let err =
            parse("blueprint t\nview a\nproperty = default x\nendview endblueprint").unwrap_err();
        assert_eq!(err.span.start.line, 3);
    }

    #[test]
    fn parses_or_and_not_expressions() {
        let v = parse_view("let odd = not ($a == 1) or ($b != 2)");
        match &v.lets[0].expr {
            Expr::Or(lhs, rhs) => {
                assert!(matches!(**lhs, Expr::Not(_)));
                assert!(matches!(**rhs, Expr::Ne(_, _)));
            }
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn expression_depth_is_capped_with_a_position() {
        let nested = |n: usize| format!("let x = {}a{}", "(".repeat(n), ")".repeat(n));
        let nots = |n: usize| format!("let x = {}a", "not ".repeat(n));
        let chain = |n: usize| format!("let x = a{}", " or a".repeat(n));
        for body in [nested, nots, chain] {
            let src = |n| format!("blueprint t\nview X\n{}\nendview endblueprint", body(n));
            parse(&src(MAX_EXPR_DEPTH)).unwrap();
            let err = parse(&src(MAX_EXPR_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nests deeper than 256"), "{err}");
            assert_eq!(err.span.start.line, 3, "{err}");
        }
        // Parenthesized chains nested on their left operand add up.
        let mut expr = "a".to_string();
        for _ in 0..=MAX_EXPR_DEPTH / 4 {
            expr = format!("({expr} or a or a or a)");
        }
        let err = parse(&format!(
            "blueprint t view X let x = {expr} endview endblueprint"
        ));
        assert!(err.unwrap_err().message.contains("nests deeper"));
    }
}
