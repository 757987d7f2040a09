//! Reproduce-or-fail for the fast text results: each renderer below
//! must print exactly its committed `results/<name>.txt`. The runs are
//! virtual-time deterministic, so any drift (a changed figure, a new
//! report line) fails here until the file is regenerated with
//! `cargo run --release -p fa-bench --bin <name> > results/<name>.txt`.

use fa_bench::{fig4, fig5, table2, table3, table4, table5};

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn assert_reproduces(name: &str, rendered: &str) {
    let expected = committed(name);
    if rendered != expected {
        let line = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(expected.lines().count()));
        panic!(
            "results/{name}.txt no longer reproduces: first difference at line {}\n\
             rendered:  {:?}\ncommitted: {:?}",
            line + 1,
            rendered.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}

#[test]
fn fig5_reproduces() {
    assert_reproduces("fig5", &fig5::render());
}

#[test]
fn fig4_reproduces() {
    let text: String = fig4::figures()
        .iter()
        .map(fig4::render_with_series)
        .collect();
    // The binary ends by reporting the JSON it wrote alongside.
    assert_reproduces("fig4", &(text + "wrote results/fig4.json\n"));
}

#[test]
fn table2_reproduces() {
    assert_reproduces("table2", &table2::render());
}

#[test]
fn table3_reproduces() {
    assert_reproduces("table3", &table3::render(&table3::rows()));
}

#[test]
fn table4_reproduces() {
    assert_reproduces("table4", &table4::render(&table4::rows()));
}

#[test]
fn table5_reproduces() {
    assert_reproduces("table5", &table5::render(&table5::rows()));
}
