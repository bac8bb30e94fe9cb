//! Shape checks: assertions that the reproduction preserves the
//! paper's qualitative result, recorded with enough context to print.

/// One qualitative assertion against the paper.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What is being checked, e.g. "version B is dominated by seeks".
    pub name: String,
    /// Did the reproduction satisfy it?
    pub pass: bool,
    /// Human-readable evidence (measured vs. paper).
    pub detail: String,
}

impl ShapeCheck {
    /// Build a check from a predicate and evidence string.
    pub(crate) fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        ShapeCheck {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }

    /// Check that `measured` is within `[lo, hi]`.
    pub(crate) fn in_range(name: impl Into<String>, measured: f64, lo: f64, hi: f64) -> Self {
        ShapeCheck {
            name: name.into(),
            pass: measured >= lo && measured <= hi,
            detail: format!("measured {measured:.3}, expected [{lo:.3}, {hi:.3}]"),
        }
    }

    /// Check that `a > b` (strict ordering of two measured values).
    pub(crate) fn greater(
        name: impl Into<String>,
        a_label: &str,
        a: f64,
        b_label: &str,
        b: f64,
    ) -> Self {
        ShapeCheck {
            name: name.into(),
            pass: a > b,
            detail: format!("{a_label} = {a:.3} vs {b_label} = {b:.3}"),
        }
    }
}

/// Render a check list as text.
pub(crate) fn render_checks(checks: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(if c.pass { "  [pass] " } else { "  [FAIL] " });
        out.push_str(&c.name);
        out.push_str(" — ");
        out.push_str(&c.detail);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = ShapeCheck::in_range("x", 5.0, 1.0, 10.0);
        assert!(c.pass);
        let c = ShapeCheck::in_range("x", 50.0, 1.0, 10.0);
        assert!(!c.pass);
        let c = ShapeCheck::greater("order", "a", 2.0, "b", 1.0);
        assert!(c.pass);
        assert!(c.detail.contains("a = 2.000"));
    }

    #[test]
    fn rendering_marks_failures() {
        let checks = vec![
            ShapeCheck::new("good", true, "ok"),
            ShapeCheck::new("bad", false, "oops"),
        ];
        let text = render_checks(&checks);
        assert!(text.contains("[pass] good"));
        assert!(text.contains("[FAIL] bad"));
    }
}
