//! Generated CSV text for properties over whole tables. One copy serves
//! `tests/pipeline.rs` and the worker-count equivalence tests inside
//! `deepeye-data` and `deepeye-core`, which include this file by path.

use proptest::prelude::*;

/// One generated cell: a kind (0 number, 1 ISO date, 2 short category,
/// 3 any of the three), an empty-cell draw, and a value seed.
fn cell(kind: u8, empty: u8, v: u32) -> String {
    const CATEGORIES: [&str; 6] = ["a", "b", "c", "dd", "east", "west"];
    let kind = if kind == 3 { (v % 3) as u8 } else { kind };
    match (empty, kind) {
        (0, _) => String::new(),
        (_, 0) => format!("{}.{}", v as i64 / 10 - 40, v % 10),
        (_, 1) => format!("2015-{:02}-{:02}", v % 12 + 1, v % 28 + 1),
        _ => CATEGORIES[v as usize % CATEGORIES.len()].to_owned(),
    }
}

/// CSV text of 1–60 rows and 4–6 columns of numbers, ISO dates, short
/// categories and empty cells.
pub fn csv_text() -> impl Strategy<Value = String> {
    (1usize..61, 4usize..7).prop_flat_map(|(rows, cols)| {
        let kinds = proptest::collection::vec(0u8..4, cols);
        let cells = proptest::collection::vec((0u8..10, 0u32..1000), rows * cols);
        (kinds, cells).prop_map(move |(kinds, cells)| {
            let header: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
            let mut text = header.join(",") + "\n";
            for row in cells.chunks(cols) {
                let line: Vec<String> = row
                    .iter()
                    .zip(&kinds)
                    .map(|(&(empty, v), &kind)| cell(kind, empty, v))
                    .collect();
                text.push_str(&line.join(","));
                text.push('\n');
            }
            text
        })
    })
}
