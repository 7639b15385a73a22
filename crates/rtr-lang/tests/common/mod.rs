//! The nested-encoding oracle for module verdicts, shared by the
//! surface-language integration tests.
//!
//! `check_source`, `check_module_source` and sessions all read the
//! recovering module check. The independent reference is the paper's
//! own driver: elaborate the module into one nested `letrec`/`let`
//! expression and type it with `check_program` (T-LetRec/T-Let).

use rtr_core::check::Checker;
use rtr_lang::{check_module_source, elaborate_module};

/// `s` with elaborator-minted fresh-name suffixes (`b%24`) removed, so
/// the results of two elaboration runs compare equal.
pub fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '%' {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Asserts that the module check of `src` agrees with `check_program`
/// on its nested encoding: the same verdict, the same first error code,
/// and, for a clean module, the same value type up to fresh names.
pub fn assert_agrees_with_nested_encoding(src: &str, checker: &Checker) {
    let report = check_module_source(src, checker);
    let first_error = report
        .diagnostics
        .iter()
        .find(|d| d.is_error())
        .map(|d| d.code);
    let nested = match elaborate_module(src) {
        Ok(program) => checker.check_program(&program).map_err(|d| d.code),
        Err(e) => Err(e.to_diagnostic().code),
    };
    match nested {
        Ok(r) => {
            assert_eq!(
                first_error, None,
                "the module check rejects what the nested encoding accepts:\n{src}\n{:#?}",
                report.diagnostics
            );
            let value = report.value.expect("a clean module has a value");
            assert_eq!(
                normalize(&value.ty.to_string()),
                normalize(&r.ty.to_string()),
                "value types differ on\n{src}"
            );
        }
        Err(code) => assert_eq!(
            first_error,
            Some(code),
            "first errors differ on\n{src}\n{:#?}",
            report.diagnostics
        ),
    }
}
