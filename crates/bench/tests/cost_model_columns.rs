//! The SIMT cost model, as the paper-table generators print it, pinned.
//!
//! `--bin sec8`, `--bin table1` and `--bin fig6` each print a column or two
//! that is pure cost model: issue slots and their ratios, issue-slot
//! occupancy, reservation RMWs per message. None of them depends on time
//! or on the allocator, so this test runs the three generators (quick
//! scale where they have one) and compares exactly those cells, byte for
//! byte, with `golden/cost_model_columns.txt`. A change to how the engine
//! *executes* a work-group must leave the file alone; a change to what it
//! *charges* shows up as a diff to review. Timing columns (GB/s), modelled
//! packet sizes and line counts are not compared.

use std::process::Command;

/// Run a generator binary and return its report table as rows of cells.
fn table(exe: &str, args: &[&str]) -> Vec<Vec<String>> {
    let out = Command::new(exe)
        .args(args)
        // Keep the generators' JSON out of the repository's results/.
        .env("GRAVEL_RESULTS_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    // `Table::print`: a title line, the header, a rule, then the rows,
    // every cell right-aligned and two spaces from its neighbour; the
    // table ends at the first blank line.
    text.lines()
        .skip_while(|l| !l.starts_with("=="))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .filter(|l| !l.trim_start().starts_with('-'))
        .map(|l| {
            l.split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .map(String::from)
                .collect()
        })
        .collect()
}

/// `table / row label / column = cell` for the named rows (all if empty)
/// and columns.
fn extract(name: &str, table: &[Vec<String>], rows: &[&str], columns: &[&str]) -> String {
    let (header, body) = table.split_first().expect("report has a header");
    let mut out = String::new();
    for row in body
        .iter()
        .filter(|r| rows.is_empty() || rows.contains(&r[0].as_str()))
    {
        for (column, cell) in header
            .iter()
            .zip(row)
            .filter(|(c, _)| columns.contains(&c.as_str()))
        {
            out.push_str(&format!("{name} / {} / {column} = {cell}\n", row[0]));
        }
    }
    out
}

#[test]
fn counter_columns_of_sec8_table1_and_fig6_match_the_committed_values() {
    let sec8 = table(env!("CARGO_BIN_EXE_sec8"), &["--quick"]);
    let table1 = table(env!("CARGO_BIN_EXE_table1"), &[]);
    let fig6 = table(env!("CARGO_BIN_EXE_fig6"), &["--quick"]);
    let got = [
        extract("sec8", &sec8, &[], &["issue slots", "speedup"]),
        extract(
            "table1",
            &table1,
            &[
                "SIMT utilization (issue-slot occupancy)",
                "producer RMWs per message (live queue)",
            ],
            &["coprocessor", "msg-per-lane", "coalesced APIs", "Gravel"],
        ),
        extract("fig6", &fig6, &[], &["RMWs/work-item"]),
    ]
    .concat();
    let want = include_str!("golden/cost_model_columns.txt");
    assert!(
        got == want,
        "cost-model columns drifted from crates/bench/tests/golden/cost_model_columns.txt\n\
         --- committed\n{want}--- this build\n{got}"
    );
}
