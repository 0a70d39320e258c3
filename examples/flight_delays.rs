//! The paper's running example end to end: generate the flight-delay table
//! (Table I / dataset X10) and watch DeepEye rediscover the figures of the
//! paper's introduction — the carrier scatter (Figure 1(a)), the hourly
//! delay line (Figure 1(c)) — while ranking the structureless daily-average
//! line (Figure 1(d)) poorly.
//!
//! ```sh
//! cargo run --release --example flight_delays
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye::datagen::{flight_table, PerceptionOracle};
use deepeye::prelude::*;
use deepeye_core::features::line_trend;
use deepeye_data::TimeUnit;
use deepeye_query::UdfRegistry;

fn main() {
    // A trimmed-down FlyDelay keeps the example snappy; pass the paper's
    // full 99,527 rows if you have a minute.
    let rows = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let table = flight_table(2015, rows);
    println!("generated {}\n", table.schema_string());

    let eye = DeepEye::with_defaults();
    let recs = eye.recommend(&table, 6);
    println!("=== DeepEye's first page (top-6), like the paper's Figure 9 ===\n");
    for rec in &recs {
        println!(
            "#{} [{}]  M={:.2} Q={:.4} W={:.2}",
            rec.rank,
            rec.node.chart_type(),
            rec.factors.m,
            rec.factors.q,
            rec.factors.w
        );
        println!("{}", rec.node.data.ascii_sketch(10));
    }

    // The Figure 1(c) vs 1(d) story, scored explicitly.
    let udfs = UdfRegistry::default();
    let build = |unit: TimeUnit| {
        VisNode::build(
            &table,
            VisQuery {
                chart: ChartType::Line,
                x: "scheduled".into(),
                y: Some("departure delay".into()),
                transform: Transform::Bin(BinStrategy::Unit(unit)),
                aggregate: Aggregate::Avg,
                order: SortOrder::ByX,
            },
            &udfs,
        )
        .expect("valid query")
    };
    let hourly = build(TimeUnit::Hour);
    let daily = build(TimeUnit::Day);
    let oracle = PerceptionOracle::default();
    println!("=== Example 1's good/bad pair ===\n");
    println!(
        "Figure 1(c) — AVG delay by hour of day   | {} buckets, trend: {}, oracle score {:.0}",
        hourly.transformed_rows(),
        line_trend(&hourly.data.series).follows_distribution,
        oracle.score(&hourly)
    );
    println!("{}", hourly.data.ascii_sketch(24));
    println!(
        "Figure 1(d) — AVG delay by day of year   | {} buckets, trend: {}, oracle score {:.0}",
        daily.transformed_rows(),
        line_trend(&daily.data.series).follows_distribution,
        oracle.score(&daily)
    );
    println!("(sketch omitted — 365 structureless points, exactly why it's \"bad\")");
}
