//! Module verdicts against the nested-encoding oracle (see `common`),
//! over small recovery cases and the golden diagnostic fixtures. The
//! paper's programs are cross-checked the same way in `paper_programs`.

mod common;

use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;

#[test]
fn recovery_agrees_with_the_nested_encoding() {
    let mut sources: Vec<String> = [
        "(define (f [x : Int]) (add1 x)) (f 1)",
        "(define (f [x : Int]) (add1 x)) (f #t)",
        "(define n 10) (define m : Int (+ n 1)) (+ n m)",
        "(: f : [x : Int] -> Int) (define (f x) #t)",
        "(+ 1 2) (+ 3 #t) (+ 4 5)",
        "(define b #t) (if b 1 2)",
        "(define (g [y : Int]) y) (g 1) (g #f) (define h (g 2))",
        "",
        "(define (f x) (if)) (f 1)",
        "(add1",
    ]
    .map(String::from)
    .into();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../rtr/tests/golden");
    let mut fixtures: Vec<_> = std::fs::read_dir(golden)
        .expect("golden fixture directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtr"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no golden fixtures under {golden}");
    for path in fixtures {
        sources.push(std::fs::read_to_string(path).expect("readable fixture"));
    }
    for checker in [
        Checker::default(),
        Checker::with_config(CheckerConfig::lambda_tr()),
    ] {
        for src in &sources {
            common::assert_agrees_with_nested_encoding(src, &checker);
        }
    }
}

/// Existentials a define's right-hand side opens are quantified in the
/// module's value exactly as T-Let quantifies them in the nested
/// encoding: the whole type-result (quantifier prefix, propositions and
/// object) renders the same up to fresh-name numbers.
#[test]
fn module_values_quantify_right_hand_side_existentials() {
    let sources = [
        "(define n 10) (define m : Int (+ n 1)) (+ n m)",
        "(: f : [x : Int] -> Int) (define (f x) x) (define n (f 3)) (+ n 1)",
        "(: f : [x : Int] -> Int) (define (f x) x) (define n (f 3)) (f n) (+ n 1)",
    ];
    for checker in [
        Checker::default(),
        Checker::with_config(CheckerConfig::lambda_tr()),
    ] {
        for src in sources {
            let module = rtr_lang::check_module_source(src, &checker)
                .value
                .expect("a clean module has a value");
            let program = rtr_lang::elaborate_module(src).expect("elaborates");
            let nested = checker
                .check_program(&program)
                .expect("nested encoding checks");
            assert_eq!(
                common::normalize(&module.to_string()),
                common::normalize(&nested.to_string()),
                "module values differ on\n{src}\nmodule: {module}\nnested: {nested}"
            );
        }
    }
}
