//! The declarative sweep grammar: a plain-text spec names the seed set,
//! one or more config grids (each a cross-product of axes over the
//! `tapestry_workload::sweep_preset` knobs), and the regression gates a
//! `--compare` run enforces — so CI thresholds live in one committed
//! file instead of inline script steps.
//!
//! ```text
//! # sweeps/ci.spec
//! name ci
//! seeds 42 43 44
//!
//! grid steady-zipf-256
//! preset steady-zipf
//! nodes 256
//! ops 500
//!
//! grid churn-scale-1k
//! preset churn-scale
//! nodes 1000
//! ops 2000
//! budget default 4
//!
//! gate join_msgs_mean max_ratio 1.5
//! gate repairs_per_node_round max_ratio 1.5 abs_slack 1.0
//! gate wall.events_per_sec min_abs 30000 cell churn-scale
//! ```
//!
//! Axis lines accept several whitespace-separated values; the grid is the
//! cross-product of every axis. The literal `default` leaves a knob at
//! the preset's own value, so `budget default 4` sweeps the preset's
//! repair budget against a budget of 4 repairs per node per second.

use tapestry_workload::presets::ScaleSpace;
use tapestry_workload::{sweep_preset, ScenarioSpec, SweepKnobs};

/// One parsed sweep specification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (the aggregate's top-level key).
    pub name: String,
    /// Seeds every cell runs, ascending and deduplicated.
    pub seeds: Vec<u64>,
    /// Worker-count default for this spec (`--workers` overrides).
    pub default_workers: Option<usize>,
    /// The config grids, in file order.
    pub grids: Vec<GridSpec>,
    /// Regression gates for `--compare`, in file order.
    pub gates: Vec<Gate>,
}

/// One `grid` section: a preset plus per-axis value lists whose
/// cross-product expands into cells.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid label (leading component of every cell key).
    pub name: String,
    /// Preset name handed to `sweep_preset`.
    pub preset: String,
    /// Operation budget per run.
    pub ops: u64,
    /// Node-count axis.
    pub nodes: Vec<usize>,
    /// Substrate axis (`None` = preset default).
    pub spaces: Vec<Option<ScaleSpace>>,
    /// Identifier-radix axis.
    pub bases: Vec<Option<u8>>,
    /// Acknowledged-multicast fan-out axis (`0` = unbounded).
    pub fanouts: Vec<Option<usize>>,
    /// Join-coalescing window axis, in distance units.
    pub windows: Vec<Option<f64>>,
    /// Repair budget axis (repairs/sec/node).
    pub budgets: Vec<Option<u32>>,
    /// Join-batching axis (`churn-scale` only).
    pub batched: Vec<Option<bool>>,
}

impl GridSpec {
    fn new(name: &str) -> Self {
        GridSpec {
            name: name.to_string(),
            preset: String::new(),
            ops: 0,
            nodes: Vec::new(),
            spaces: vec![None],
            bases: vec![None],
            fanouts: vec![None],
            windows: vec![None],
            budgets: vec![None],
            batched: vec![None],
        }
    }

    /// Expand the cross-product of every axis into cells, in a fixed
    /// nesting order (nodes outermost, batching innermost) so cell order —
    /// and therefore every emitted artifact — is independent of how the
    /// runs are later scheduled.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &nodes in &self.nodes {
            for &space in &self.spaces {
                for &base in &self.bases {
                    for &fanout in &self.fanouts {
                        for &window in &self.windows {
                            for &budget in &self.budgets {
                                for &batch in &self.batched {
                                    cells.push(CellSpec {
                                        grid: self.name.clone(),
                                        preset: self.preset.clone(),
                                        nodes,
                                        ops: self.ops,
                                        space,
                                        knobs: SweepKnobs {
                                            base,
                                            multicast_fanout: fanout,
                                            coalesce_window: window,
                                            repair_budget: budget,
                                            batched: batch,
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One fully-resolved grid cell: a concrete scenario configuration that
/// each seed instantiates into an independent run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Owning grid's label.
    pub grid: String,
    /// Preset name.
    pub preset: String,
    /// Network size.
    pub nodes: usize,
    /// Operation budget.
    pub ops: u64,
    /// Substrate override.
    pub space: Option<ScaleSpace>,
    /// Config knobs.
    pub knobs: SweepKnobs,
}

impl CellSpec {
    /// The canonical cell key: grid, node count and non-default knobs.
    /// Aggregate artifacts are keyed by this string, so it encodes every
    /// axis that can distinguish two cells.
    pub fn key(&self) -> String {
        let mut k = format!("{}/n{}", self.grid, self.nodes);
        if let Some(s) = self.space {
            k.push_str(match s {
                ScaleSpace::Torus => "/space=torus",
                ScaleSpace::Grid => "/space=grid",
                ScaleSpace::TransitStub => "/space=transit-stub",
            });
        }
        if let Some(b) = self.knobs.base {
            k.push_str(&format!("/base={b}"));
        }
        if let Some(f) = self.knobs.multicast_fanout {
            k.push_str(&format!("/fanout={f}"));
        }
        if let Some(w) = self.knobs.coalesce_window {
            k.push_str(&format!("/win={w}"));
        }
        if let Some(r) = self.knobs.repair_budget {
            k.push_str(&format!("/budget={r}"));
        }
        if let Some(b) = self.knobs.batched {
            k.push_str(if b { "/batch=on" } else { "/batch=off" });
        }
        k
    }

    /// Instantiate the cell for one seed.
    pub fn build(&self, seed: u64) -> Result<ScenarioSpec, String> {
        sweep_preset(&self.preset, self.nodes, self.ops, seed, self.space, &self.knobs)
            .map_err(|e| format!("cell {}: {e}", self.key()))
    }
}

/// How a gate compares the fresh aggregate against its reference value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// `current_mean ≤ baseline_mean · r + abs_slack` — a regression
    /// ceiling relative to the committed baseline.
    MaxRatio(f64),
    /// `current_mean ≥ baseline_mean · r − abs_slack` — a floor relative
    /// to the committed baseline.
    MinRatio(f64),
    /// `current_mean + abs_slack ≥ v` — an absolute floor carried by the
    /// spec itself (the only sound form for machine-dependent `wall.*`
    /// metrics, which the committed baseline deliberately omits).
    MinAbs(f64),
    /// `current_mean ≤ v + abs_slack` — an absolute ceiling.
    MaxAbs(f64),
}

impl GateKind {
    /// The spec keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            GateKind::MaxRatio(_) => "max_ratio",
            GateKind::MinRatio(_) => "min_ratio",
            GateKind::MinAbs(_) => "min_abs",
            GateKind::MaxAbs(_) => "max_abs",
        }
    }

    /// The gate's numeric parameter.
    pub fn value(&self) -> f64 {
        match *self {
            GateKind::MaxRatio(v)
            | GateKind::MinRatio(v)
            | GateKind::MinAbs(v)
            | GateKind::MaxAbs(v) => v,
        }
    }
}

/// One regression gate: a metric, a comparison, and an optional cell
/// filter restricting which cells it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name; a `wall.` prefix selects the machine-dependent
    /// timing metrics (absolute gates only).
    pub metric: String,
    /// Comparison kind and parameter.
    pub kind: GateKind,
    /// Additive slack applied on the tolerant side of the comparison.
    pub abs_slack: f64,
    /// Substring filter over cell keys (`None` = every cell carrying the
    /// metric).
    pub cell_filter: Option<String>,
}

impl SweepSpec {
    /// Parse the sweep grammar. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::default();
        let mut grid: Option<GridSpec> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lno = idx + 1;
            let mut toks = line.split_whitespace();
            let key = toks.next().unwrap_or("");
            let vals: Vec<&str> = toks.collect();
            let err = |msg: String| Err(format!("line {lno}: {msg}"));
            match key {
                "name" => spec.name = one(&vals).map_err(|e| format!("line {lno}: name: {e}"))?,
                "seeds" => {
                    spec.seeds = parse_list(&vals, "seed", parse_u64)
                        .map_err(|e| format!("line {lno}: {e}"))?;
                    spec.seeds.sort_unstable();
                    spec.seeds.dedup();
                }
                "workers" => {
                    let w: usize = one(&vals)
                        .and_then(|s: String| s.parse().map_err(|_| "not a count".to_string()))
                        .map_err(|e| format!("line {lno}: workers: {e}"))?;
                    if w == 0 {
                        return err("workers must be at least 1".into());
                    }
                    spec.default_workers = Some(w);
                }
                "grid" => {
                    if let Some(g) = grid.take() {
                        spec.grids.push(finish_grid(g)?);
                    }
                    let name = one(&vals).map_err(|e| format!("line {lno}: grid: {e}"))?;
                    if spec.grids.iter().any(|g| g.name == name) {
                        return err(format!("duplicate grid '{name}'"));
                    }
                    grid = Some(GridSpec::new(&name));
                }
                "gate" => {
                    spec.gates
                        .push(parse_gate(&vals).map_err(|e| format!("line {lno}: gate: {e}"))?);
                }
                _ => {
                    let g = match grid.as_mut() {
                        Some(g) => g,
                        None => return err(format!("'{key}' must follow a `grid` line")),
                    };
                    apply_grid_key(g, key, &vals).map_err(|e| format!("line {lno}: {e}"))?;
                }
            }
        }
        if let Some(g) = grid.take() {
            spec.grids.push(finish_grid(g)?);
        }
        if spec.name.is_empty() {
            return Err("spec is missing a `name` line".into());
        }
        if spec.seeds.is_empty() {
            return Err("spec is missing a `seeds` line".into());
        }
        if spec.grids.is_empty() {
            return Err("spec declares no grids".into());
        }
        for gate in &spec.gates {
            if gate.metric.starts_with("wall.")
                && matches!(gate.kind, GateKind::MaxRatio(_) | GateKind::MinRatio(_))
            {
                return Err(format!(
                    "gate '{}': wall metrics are machine-dependent and absent from committed \
                     baselines — use min_abs/max_abs",
                    gate.metric
                ));
            }
        }
        // Surface un-runnable cells at parse time, not mid-sweep: build
        // and validate every cell once with the first seed.
        for cell in spec.cells() {
            cell.build(spec.seeds[0])?
                .validate()
                .map_err(|e| format!("cell {}: {e}", cell.key()))?;
        }
        Ok(spec)
    }

    /// Every cell of every grid, in declaration order.
    pub fn cells(&self) -> Vec<CellSpec> {
        self.grids.iter().flat_map(|g| g.expand()).collect()
    }
}

fn one(vals: &[&str]) -> Result<String, String> {
    match vals {
        [v] => Ok((*v).to_string()),
        _ => Err(format!("expected exactly one value, got {}", vals.len())),
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("'{s}' is not an unsigned integer"))
}

fn parse_list<T>(
    vals: &[&str],
    what: &str,
    f: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    if vals.is_empty() {
        return Err(format!("expected at least one {what}"));
    }
    vals.iter().map(|v| f(v)).collect()
}

/// Parse an optional-axis value list, mapping the literal `default` to
/// `None` (preset default).
fn parse_axis<T>(
    vals: &[&str],
    what: &str,
    f: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<Option<T>>, String> {
    parse_list(vals, what, |v| if v == "default" { Ok(None) } else { f(v).map(Some) })
}

fn apply_grid_key(g: &mut GridSpec, key: &str, vals: &[&str]) -> Result<(), String> {
    match key {
        "preset" => g.preset = one(vals).map_err(|e| format!("preset: {e}"))?,
        "ops" => {
            g.ops =
                one(vals).and_then(|s: String| parse_u64(&s)).map_err(|e| format!("ops: {e}"))?;
            // 0 is `finish_grid`'s "no `ops` line yet" marker.
            if g.ops == 0 {
                return Err("ops: '0' is not an op count ≥ 1".into());
            }
        }
        "nodes" => {
            g.nodes = parse_list(vals, "node count", |s| {
                s.parse::<usize>().map_err(|_| format!("'{s}' is not a node count"))
            })?;
        }
        "space" => {
            g.spaces = parse_axis(vals, "space", |s| {
                ScaleSpace::parse(s).ok_or_else(|| format!("unknown space '{s}'"))
            })?;
        }
        "base" => {
            g.bases = parse_axis(vals, "radix", |s| {
                s.parse::<u8>().map_err(|_| format!("'{s}' is not a radix"))
            })?;
        }
        "fanout" => {
            g.fanouts = parse_axis(vals, "fanout", |s| {
                s.parse::<usize>().map_err(|_| format!("'{s}' is not a fanout"))
            })?;
        }
        "window" => {
            g.windows = parse_axis(vals, "window", |s| {
                s.parse::<f64>().map_err(|_| format!("'{s}' is not a window"))
            })?;
        }
        "budget" => {
            g.budgets = parse_axis(vals, "budget", |s| {
                s.parse::<u32>().map_err(|_| format!("'{s}' is not a budget"))
            })?;
        }
        "batched" => {
            g.batched = parse_axis(vals, "batched flag", |s| match s {
                "on" => Ok(true),
                "off" => Ok(false),
                _ => Err(format!("batched must be on|off|default, got '{s}'")),
            })?;
        }
        _ => return Err(format!("unknown key '{key}'")),
    }
    Ok(())
}

fn finish_grid(g: GridSpec) -> Result<GridSpec, String> {
    if g.preset.is_empty() {
        return Err(format!("grid '{}' is missing a `preset` line", g.name));
    }
    if g.nodes.is_empty() {
        return Err(format!("grid '{}' is missing a `nodes` line", g.name));
    }
    if g.ops == 0 {
        return Err(format!("grid '{}' is missing an `ops` line", g.name));
    }
    Ok(g)
}

fn parse_gate(vals: &[&str]) -> Result<Gate, String> {
    let (metric, kw, val, rest) = match vals {
        [m, k, v, rest @ ..] => (*m, *k, *v, rest),
        _ => return Err("expected `gate METRIC KIND VALUE [abs_slack V] [cell SUBSTR]`".into()),
    };
    // A non-finite limit cannot gate: ∞ never fails, NaN always does.
    let finite = |s: &str, what: &str| match s.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(format!("'{s}' is not a finite {what}")),
    };
    let v = finite(val, "number")?;
    let kind = match kw {
        "max_ratio" => GateKind::MaxRatio(v),
        "min_ratio" => GateKind::MinRatio(v),
        "min_abs" => GateKind::MinAbs(v),
        "max_abs" => GateKind::MaxAbs(v),
        _ => return Err(format!("unknown gate kind '{kw}' (max_ratio|min_ratio|min_abs|max_abs)")),
    };
    let mut gate = Gate { metric: metric.to_string(), kind, abs_slack: 0.0, cell_filter: None };
    let mut rest = rest.iter();
    while let Some(&opt) = rest.next() {
        let arg = rest.next().ok_or_else(|| format!("'{opt}' needs a value"))?;
        match opt {
            "abs_slack" => gate.abs_slack = finite(arg, "slack value")?,
            "cell" => gate.cell_filter = Some((*arg).to_string()),
            _ => return Err(format!("unknown gate option '{opt}'")),
        }
    }
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const SPEC: &str = "\
# demo sweep
name demo
seeds 43 42 42
workers 2

grid tiny
preset steady-zipf
nodes 16 32
ops 40
fanout default 2

grid churny
preset churn-scale
nodes 64
ops 100
budget default 4

gate join_msgs_mean max_ratio 1.5 cell churny
gate hops_p50 max_ratio 1.2 abs_slack 0.5
gate wall.events_per_sec min_abs 1000
";

    #[test]
    fn parses_grids_axes_and_gates() {
        let s = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seeds, vec![42, 43], "sorted and deduplicated");
        assert_eq!(s.default_workers, Some(2));
        assert_eq!(s.grids.len(), 2);
        let cells = s.cells();
        // tiny: 2 nodes × 2 fan-outs; churny: 1 × 2 budgets.
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].key(), "tiny/n16");
        assert_eq!(cells[3].key(), "tiny/n32/fanout=2");
        assert_eq!(cells[4].key(), "churny/n64");
        assert_eq!(cells[5].key(), "churny/n64/budget=4");
        assert_eq!(s.gates.len(), 3);
        assert_eq!(s.gates[0].cell_filter.as_deref(), Some("churny"));
        assert_eq!(s.gates[1].abs_slack, 0.5);
        assert_eq!(s.gates[2].kind, GateKind::MinAbs(1000.0));
    }

    #[test]
    fn cell_order_is_declaration_order() {
        let s = SweepSpec::parse(SPEC).unwrap();
        let keys: Vec<String> = s.cells().iter().map(|c| c.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_ne!(keys, sorted, "order comes from the spec, not lexicographic accident");
        let again: Vec<String> = s.cells().iter().map(|c| c.key()).collect();
        assert_eq!(keys, again);
    }

    #[test]
    fn rejects_malformed_specs() {
        let must_fail = |body: &str, why: &str| {
            assert!(SweepSpec::parse(body).is_err(), "{why}");
        };
        must_fail("seeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10", "missing name");
        must_fail("name x\ngrid g\npreset steady-zipf\nnodes 8\nops 10", "missing seeds");
        must_fail("name x\nseeds 1", "no grids");
        must_fail("name x\nseeds 1\npreset steady-zipf", "preset before grid");
        must_fail("name x\nseeds 1\ngrid g\nnodes 8\nops 10", "grid without preset");
        must_fail("name x\nseeds 1\ngrid g\npreset steady-zipf\nops 10", "grid without nodes");
        must_fail("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8", "grid without ops");
        must_fail(
            "name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\n\
             grid g\npreset steady-zipf\nnodes 8\nops 10",
            "duplicate grid name",
        );
        must_fail(
            "name x\nseeds 1\ngrid g\npreset nonesuch\nnodes 8\nops 10",
            "unknown preset caught at parse time",
        );
        must_fail(
            "name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\nbatched on",
            "batched on a non-churn preset caught at parse time",
        );
        must_fail(
            "name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\n\
             gate wall.events_per_sec max_ratio 3",
            "ratio gate on a wall metric",
        );
        must_fail(
            "name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\ngate m bogus 1",
            "unknown gate kind",
        );
        must_fail(
            "name x\nseeds 1\nworkers 0\ngrid g\npreset steady-zipf\nnodes 8\nops 10",
            "zero workers",
        );
        for nodes in ["0", "1", "18446744073709551615"] {
            must_fail(
                &format!("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8 {nodes}\nops 10"),
                "an un-runnable node count caught at parse time",
            );
        }
        for gate in
            ["max_ratio inf", "min_abs -inf", "max_ratio NaN", "max_ratio 1.1 abs_slack inf"]
        {
            must_fail(
                &format!(
                    "name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\ngate m {gate}"
                ),
                "a non-finite gate value or slack",
            );
        }
        // `ops 0` is blamed on its own line, also after a valid `ops`;
        // only a grid with no `ops` line at all is called missing one.
        let err = |body: &str| SweepSpec::parse(body).unwrap_err();
        let zero = "line 6: ops: '0' is not an op count ≥ 1";
        assert_eq!(err("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 0"), zero);
        assert_eq!(
            err("name x\nseeds 1\ngrid g\npreset steady-zipf\nops 100\nops 0\nnodes 8"),
            zero
        );
        assert_eq!(
            err("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8"),
            "grid 'g' is missing an `ops` line"
        );
        // There is one maintenance behaviour and one worker per run, so
        // no axis selects either.
        assert_eq!(
            err("name x\nseeds 1\ngrid g\npreset churn-scale\nnodes 64\nops 10\nmaintenance incremental"),
            "line 7: unknown key 'maintenance'"
        );
        assert_eq!(
            err("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\nthreads 1"),
            "line 7: unknown key 'threads'"
        );
    }

    /// Spec keys and values for the never-panic property: every key, an
    /// unknown one, valid and invalid values, and comment noise.
    const KEYS: &str = "name seeds workers grid preset ops nodes space base fanout \
                        window budget batched gate bogus #";
    const VALUES: &str = "x 0 1 2 16 -1 1.5 inf NaN 18446744073709551615 default steady-zipf \
                          churn-scale torus incremental on max_ratio min_abs abs_slack cell \
                          wall.events_per_sec # é";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Token soup is `Ok` or `Err`, never a panic. Half the cases
        /// append it to a valid spec, so it also reaches cell expansion,
        /// validation and the gates.
        #[test]
        fn parse_never_panics_on_token_soup(seed in 0u64..u64::MAX) {
            let keys: Vec<&str> = KEYS.split_whitespace().collect();
            let values: Vec<&str> = VALUES.split_whitespace().collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut text = String::new();
            if rng.gen_bool(0.5) {
                text.push_str("name x\nseeds 1\ngrid g\npreset steady-zipf\nnodes 8\nops 10\n");
            }
            for _ in 0..rng.gen_range(0..16usize) {
                text.push_str(keys.choose(&mut rng).unwrap());
                for _ in 0..rng.gen_range(0..3usize) {
                    text.push(' ');
                    text.push_str(values.choose(&mut rng).unwrap());
                }
                text.push('\n');
            }
            let _ = SweepSpec::parse(&text);
        }
    }

    /// Every committed `sweeps/*.spec`, by file name.
    const COMMITTED: &[(&str, &str)] = &[
        ("ci.spec", include_str!("../../../sweeps/ci.spec")),
        ("scale.spec", include_str!("../../../sweeps/scale.spec")),
        ("wide.spec", include_str!("../../../sweeps/wide.spec")),
    ];

    #[test]
    fn committed_specs_parse() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../sweeps");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .expect("sweeps/ directory")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".spec"))
            .collect();
        on_disk.sort();
        let listed: Vec<&str> = COMMITTED.iter().map(|&(n, _)| n).collect();
        assert_eq!(on_disk, listed, "a new spec file must be added to COMMITTED");
        for (name, text) in COMMITTED {
            SweepSpec::parse(text).unwrap_or_else(|e| panic!("sweeps/{name}: {e}"));
        }
    }

    #[test]
    fn scale_spec_expands_to_the_trajectory() {
        let s = SweepSpec::parse(COMMITTED[1].1).unwrap();
        assert_eq!((s.seeds.as_slice(), s.default_workers), (&[42][..], Some(1)));
        let keys: Vec<String> = s.cells().iter().map(|c| c.key()).collect();
        let mut want = Vec::new();
        for n in [1_000, 4_000, 10_000, 25_000] {
            for space in ["torus", "transit-stub"] {
                want.push(format!("scale/n{n}/space={space}"));
            }
        }
        for n in [1_000, 25_000, 100_000] {
            want.push(format!("churn-scale/n{n}"));
        }
        for n in [1_000, 25_000] {
            want.push(format!("churn-scale-solo/n{n}/batch=off"));
        }
        assert_eq!(keys, want);
        assert!(s.cells().iter().all(|c| c.ops == 2000));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = SweepSpec::parse(
            "# leading comment\nname c   # trailing\n\nseeds 7\n\ngrid g\npreset steady-zipf\nnodes 8\nops 10\n",
        )
        .unwrap();
        assert_eq!(s.name, "c");
        assert_eq!(s.cells().len(), 1);
    }
}
