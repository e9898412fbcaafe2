//! Expression evaluation and `$` template rendering.
//!
//! Run-time rules and continuous assignments see a shell-like environment:
//! `$<name>` resolves first against the engine's built-in variables, then
//! against the properties of the current OID, and finally to the empty
//! string (as a shell would). The built-ins are the ones the paper uses:
//!
//! | variable | value |
//! |---|---|
//! | `$oid` / `$OID` | the current OID as `block,view,version` |
//! | `$block`, `$view`, `$version` | the OID components |
//! | `$event` | the event being processed |
//! | `$arg` | the first event argument |
//! | `$args` | all event arguments, space-joined |
//! | `$user` | the posting designer/tool |
//! | `$owner` | the OID's `owner` property, falling back to `$user` |
//! | `$date` | the engine's logical timestamp |

use damocles_meta::{Oid, PropertyMap, Value};

use crate::lang::ast::{Expr, Segment, Template};

/// The variable environment for one rule execution.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Properties of the current OID.
    pub props: &'a PropertyMap,
    /// The current OID triplet.
    pub oid: &'a Oid,
    /// Event being processed.
    pub event: &'a str,
    /// Event arguments.
    pub args: &'a [String],
    /// Posting user.
    pub user: &'a str,
    /// Logical timestamp.
    pub date: u64,
}

impl<'a> EvalCtx<'a> {
    /// Resolves a `$name` reference.
    pub fn lookup(&self, name: &str) -> Value {
        match name {
            "oid" | "OID" => Value::Str(self.oid.to_string()),
            "block" => Value::Str(self.oid.block.to_string()),
            "view" => Value::Str(self.oid.view.to_string()),
            "version" => Value::Int(i64::from(self.oid.version)),
            "event" => Value::Str(self.event.to_string()),
            "arg" => Value::Str(
                self.args
                    .first()
                    .map(String::as_str)
                    .unwrap_or_default()
                    .to_string(),
            ),
            "args" => Value::Str(self.args.join(" ")),
            "user" => Value::Str(self.user.to_string()),
            "owner" => self
                .props
                .get("owner")
                .cloned()
                .unwrap_or_else(|| Value::Str(self.user.to_string())),
            "date" => Value::Int(self.date as i64),
            prop => self
                .props
                .get(prop)
                .cloned()
                .unwrap_or_else(|| Value::Str(String::new())),
        }
    }

    /// Renders a template to a string, then classifies it into a typed atom
    /// — so `uptodate = false` stores a boolean and `version = 4` an
    /// integer, while interpolated messages stay strings.
    pub fn render_value(&self, template: &Template) -> Value {
        if let Some(var) = template.as_single_var() {
            return self.lookup(var);
        }
        let text = self.render(template);
        match template.segments.as_slice() {
            [Segment::Lit(_)] => Value::from_atom(&text),
            _ => Value::Str(text),
        }
    }

    /// Renders a template to plain text (for script arguments and messages).
    pub fn render(&self, template: &Template) -> String {
        let mut out = String::new();
        for segment in &template.segments {
            match segment {
                Segment::Lit(text) => out.push_str(text),
                Segment::Var(name) => out.push_str(&self.lookup(name).as_atom()),
            }
        }
        out
    }

    /// Evaluates a continuous-assignment expression to a value.
    ///
    /// Comparisons use [`Value::loose_eq`]; `and`/`or`/`not` coerce operands
    /// through [`Value::is_truthy`]. The result of a boolean operator is a
    /// [`Value::Bool`].
    pub fn eval(&self, expr: &Expr) -> Value {
        match expr {
            Expr::Var(name) => self.lookup(name),
            Expr::Atom(atom) => Value::from_atom(atom),
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Eq(a, b) => Value::Bool(self.eval(a).loose_eq(&self.eval(b))),
            Expr::Ne(a, b) => Value::Bool(!self.eval(a).loose_eq(&self.eval(b))),
            Expr::And(a, b) => Value::Bool(self.eval(a).is_truthy() && self.eval(b).is_truthy()),
            Expr::Or(a, b) => Value::Bool(self.eval(a).is_truthy() || self.eval(b).is_truthy()),
            Expr::Not(a) => Value::Bool(!self.eval(a).is_truthy()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;

    fn ctx<'a>(props: &'a PropertyMap, oid: &'a Oid, args: &'a [String]) -> EvalCtx<'a> {
        EvalCtx {
            props,
            oid,
            event: "ckin",
            args,
            user: "yves",
            date: 42,
        }
    }

    fn props(pairs: &[(&str, &str)]) -> PropertyMap {
        let mut m = PropertyMap::new();
        for (k, v) in pairs {
            m.set(*k, Value::from_atom(v));
        }
        m
    }

    /// Extracts the single let-expression from a tiny blueprint.
    fn expr_of(src: &str) -> Expr {
        let full = format!("blueprint t view v let x = {src} endview endblueprint");
        parse(&full).unwrap().views[0].lets[0].expr.clone()
    }

    #[test]
    fn builtins_resolve() {
        let p = props(&[]);
        let oid = Oid::new("cpu", "schematic", 3);
        let args = vec!["good".to_string(), "extra".to_string()];
        let c = ctx(&p, &oid, &args);
        assert_eq!(c.lookup("oid").as_atom(), "cpu,schematic,3");
        assert_eq!(c.lookup("OID").as_atom(), "cpu,schematic,3");
        assert_eq!(c.lookup("block").as_atom(), "cpu");
        assert_eq!(c.lookup("view").as_atom(), "schematic");
        assert_eq!(c.lookup("version"), Value::Int(3));
        assert_eq!(c.lookup("event").as_atom(), "ckin");
        assert_eq!(c.lookup("arg").as_atom(), "good");
        assert_eq!(c.lookup("args").as_atom(), "good extra");
        assert_eq!(c.lookup("user").as_atom(), "yves");
        assert_eq!(c.lookup("date"), Value::Int(42));
    }

    #[test]
    fn owner_falls_back_to_user() {
        let p = props(&[]);
        let oid = Oid::new("a", "v", 1);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.lookup("owner").as_atom(), "yves");
        let p = props(&[("owner", "marc")]);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.lookup("owner").as_atom(), "marc");
    }

    #[test]
    fn unknown_variable_is_empty_string() {
        let p = props(&[]);
        let oid = Oid::new("a", "v", 1);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.lookup("nonexistent"), Value::Str(String::new()));
    }

    #[test]
    fn renders_the_papers_notify_message() {
        let p = props(&[("owner", "salma")]);
        let oid = Oid::new("reg", "verilog", 4);
        let c = ctx(&p, &oid, &[]);
        let t = Template::parse_interpolated("$owner: Your oid $OID has been modified");
        assert_eq!(
            c.render(&t),
            "salma: Your oid reg,verilog,4 has been modified"
        );
    }

    #[test]
    fn render_value_types_bare_atoms() {
        let p = props(&[]);
        let oid = Oid::new("a", "v", 1);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.render_value(&Template::lit("false")), Value::Bool(false));
        assert_eq!(c.render_value(&Template::lit("7")), Value::Int(7));
        assert_eq!(
            c.render_value(&Template::lit("not_equiv")),
            Value::Str("not_equiv".into())
        );
        // Interpolated strings stay strings even if they spell a number.
        let t = Template::parse_interpolated("$version");
        // single var: typed lookup
        assert_eq!(c.render_value(&t), Value::Int(1));
        let t = Template::parse_interpolated("v$version");
        assert_eq!(c.render_value(&t), Value::Str("v1".into()));
    }

    #[test]
    fn evaluates_the_papers_state_assignment() {
        let oid = Oid::new("cpu", "schematic", 1);
        let expr =
            expr_of("($nl_sim_res == good) and ($lvs_res == is_equiv) and ($uptodate == true)");

        let p = props(&[
            ("nl_sim_res", "good"),
            ("lvs_res", "is_equiv"),
            ("uptodate", "true"),
        ]);
        assert_eq!(ctx(&p, &oid, &[]).eval(&expr), Value::Bool(true));

        let p = props(&[
            ("nl_sim_res", "bad"),
            ("lvs_res", "is_equiv"),
            ("uptodate", "true"),
        ]);
        assert_eq!(ctx(&p, &oid, &[]).eval(&expr), Value::Bool(false));
    }

    #[test]
    fn not_and_ne_and_or() {
        let oid = Oid::new("a", "v", 1);
        let p = props(&[("drc", "bad")]);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.eval(&expr_of("not ($drc == good)")), Value::Bool(true));
        assert_eq!(c.eval(&expr_of("$drc != good")), Value::Bool(true));
        assert_eq!(
            c.eval(&expr_of("($drc == good) or ($drc == bad)")),
            Value::Bool(true)
        );
    }

    #[test]
    fn loose_comparison_across_types() {
        let oid = Oid::new("a", "v", 1);
        let p = props(&[("n", "4")]);
        let c = ctx(&p, &oid, &[]);
        // prop is Int(4); atom `4` is Int; string "4" compares loosely equal.
        assert_eq!(c.eval(&expr_of("$n == 4")), Value::Bool(true));
        assert_eq!(c.eval(&expr_of(r#"$n == "4""#)), Value::Bool(true));
    }

    #[test]
    fn missing_property_compares_as_empty() {
        let oid = Oid::new("a", "v", 1);
        let p = props(&[]);
        let c = ctx(&p, &oid, &[]);
        assert_eq!(c.eval(&expr_of(r#"$ghost == """#)), Value::Bool(true));
        assert_eq!(c.eval(&expr_of("$ghost == good")), Value::Bool(false));
    }
}
