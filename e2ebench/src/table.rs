//! The self-time table of a traced run: its metrics and its printout.

use crate::cpu::{LayerTotals, LAYERS};
use crate::{Outcome, Params};

/// Everything the traced calls of one run accumulated.
#[derive(Debug, Default)]
pub struct Table {
    pub layers: LayerTotals,
    /// CPU of the traced calls, measured around each call.
    pub traced_ns: u64,
    /// CPU of the untraced calls over the same inputs.
    pub untraced_ns: u64,
    /// Wire lines (soaks) or ingested log lines (campaign) of the traced
    /// calls: the table's unit.
    pub lines: u64,
    /// Traced calls: whole soaks, or campaign runs.
    pub calls: usize,
}

impl Table {
    /// Adds one traced call over `lines` lines whose independently measured
    /// CPU was `ns`; its rows must sum to that total within 5 %.
    pub fn add_call(&mut self, out: &mut Outcome, totals: &LayerTotals, ns: u64, lines: u64) {
        let attributed = totals.total_ns();
        out.check(attributed.abs_diff(ns) * 20 <= ns, || {
            format!("layer rows sum to {attributed} ns, traced total {ns} ns")
        });
        self.layers.add(totals);
        self.traced_ns += ns;
        self.lines += lines;
        self.calls += 1;
    }

    fn per_line(&self, n: u64) -> f64 {
        n as f64 / self.lines as f64
    }

    /// The `table.*`, `alloc.*_per_line` and `traced.*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        for l in LAYERS {
            let i = l as usize;
            let name = l.name();
            out.metric(
                &format!("table.{name}_us_per_line"),
                self.per_line(self.layers.self_ns[i]) / 1e3,
            );
            out.metric(
                &format!("alloc.{name}_per_line"),
                self.per_line(self.layers.allocs[i]),
            );
            out.metric(
                &format!("alloc.{name}_bytes_per_line"),
                self.per_line(self.layers.bytes[i]),
            );
        }
        out.metric(
            "table.total_us_per_line",
            self.per_line(self.traced_ns) / 1e3,
        );
        out.metric(
            "traced.overhead_share",
            self.traced_ns as f64 / self.untraced_ns as f64 - 1.0,
        );
    }

    /// The human-readable table, on standard error. `parse_ns` is the edge
    /// parse timed alone (part of the gateway row; 0 when not measured).
    pub fn print(&self, p: &Params, parse_ns: u64) {
        let us = |ns: u64| self.per_line(ns) / 1e3;
        eprintln!(
            "{} seed {}: {} traced calls, {} lines; traced total {:.2} µs/line, untraced {:.2} µs/line \
             (overhead {:+.1} %)",
            p.workload,
            p.seed,
            self.calls,
            self.lines,
            us(self.traced_ns),
            us(self.untraced_ns),
            (self.traced_ns as f64 / self.untraced_ns as f64 - 1.0) * 100.0
        );
        eprintln!(
            "  {:<14} {:>10} {:>7} {:>12} {:>12}",
            "layer", "µs/line", "share", "allocs/line", "bytes/line"
        );
        for l in LAYERS {
            let i = l as usize;
            let ns = self.layers.self_ns[i];
            if ns > 0 {
                eprintln!(
                    "  {:<14} {:>10.3} {:>6.1}% {:>12.2} {:>12.1}",
                    l.name(),
                    us(ns),
                    ns as f64 * 100.0 / self.traced_ns as f64,
                    self.per_line(self.layers.allocs[i]),
                    self.per_line(self.layers.bytes[i])
                );
            }
        }
        let sum = self.layers.total_ns();
        eprintln!(
            "  {:<14} {:>10.3} {:>6.1}%",
            "sum",
            us(sum),
            sum as f64 * 100.0 / self.traced_ns as f64
        );
        if parse_ns > 0 {
            eprintln!(
                "  (log.parse_line alone, inside gateway: {:.3} µs/line)",
                us(parse_ns)
            );
        }
    }
}
