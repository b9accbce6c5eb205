//! Checkpoint/restore: a versioned, checksummed snapshot format for the
//! whole simulation state.
//!
//! The format is JSON — self-describing and diffable like the telemetry
//! traces — wrapped in an envelope:
//!
//! ```json
//! {"schema_version":1,"kind":"tracker","checksum":"<fnv1a64 hex>","payload":{...}}
//! ```
//!
//! The checksum is FNV-1a-64 over the exact payload bytes, so any bit flip
//! in transit is caught before a corrupted state is trusted. Every `f64` is
//! serialized as the decimal value of its IEEE-754 bit pattern (`to_bits`):
//! exact round-trips with no decimal-formatting ambiguity, NaN/inf-safe,
//! and a restored run therefore continues **bit-identically** — interaction
//! lists are captured verbatim because their iteration order drives the
//! float-summation order of every downstream reduction.
//!
//! The writer streams the text straight from the snapshot structs; the
//! reader parses it with the workspace's one JSON parser (`telemetry::Json`,
//! which keeps those `u64` bit patterns exact) and maps the tree onto the
//! structs with strict typed readers. The checksum is taken over the exact
//! byte span the parser reports for the payload value, and bytes after the
//! envelope are a parse error.

use crate::balance::{BalancerSnapshot, LbConfig, LbState, Strategy};
use crate::config::FmmParams;
use crate::cost::CostModel;
use crate::error::Error;
use crate::filter::FilterSnapshot;
use crate::simulate::StepRecord;
use geom::Vec3;
use gpu_sim::{DeviceStatus, FaultEvent, FaultSchedule};
use octree::{ListsSnapshot, Mac, Node, OpCounts, TreeSnapshot};
use std::fmt::Write as _;
use telemetry::Json;

/// Version of the on-disk schema. Bump on any incompatible layout change;
/// restore refuses snapshots from a different version.
pub const SCHEMA_VERSION: u32 = 1;

/// Plain-data image of an [`FmmEngine`](crate::FmmEngine): numerical
/// parameters, the octree, and the live execution plan (verbatim lists).
/// Scratch buffers are excluded — every solve overwrites them in full.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    pub params: FmmParams,
    pub domain: Option<(Vec3, f64)>,
    pub tree: TreeSnapshot,
    pub plan: Option<ListsSnapshot>,
    pub plan_stale: bool,
}

/// Plain-data image of a [`StrategyTracker`](crate::StrategyTracker): the
/// engine, the trained cost model, the balancer state machine, the timing
/// filters, the fault script with the device status it has produced so far,
/// the measurement-noise RNG state, the step history — and the body
/// positions, so a restore can proceed even when the live position buffer
/// was the thing that got corrupted.
#[derive(Clone, Debug)]
pub struct TrackerSnapshot {
    pub engine: EngineSnapshot,
    pub model: CostModel,
    pub balancer: BalancerSnapshot,
    pub records: Vec<StepRecord>,
    pub first: bool,
    pub faults: FaultSchedule,
    /// Per-device status at checkpoint time (`None` on CPU-only nodes).
    pub gpu_status: Option<Vec<DeviceStatus>>,
    pub cpu_load: f64,
    pub noise_sigma: f64,
    pub noise_state: u64,
    pub filter_cpu: FilterSnapshot,
    pub filter_gpu: FilterSnapshot,
    pub pos: Vec<Vec3>,
}

// ---- checksum ----

/// FNV-1a 64-bit over the payload bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- writer ----

fn w_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{}", v.to_bits());
}

fn w_vec3(out: &mut String, v: Vec3) {
    out.push('[');
    w_f64(out, v.x);
    out.push(',');
    w_f64(out, v.y);
    out.push(',');
    w_f64(out, v.z);
    out.push(']');
}

fn w_u64_slice<T: Copy + Into<u64>>(out: &mut String, xs: &[T]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", x.into());
    }
    out.push(']');
}

fn w_lists(out: &mut String, lists: &[Vec<u32>]) {
    out.push('[');
    for (i, l) in lists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_u64_slice(out, l);
    }
    out.push(']');
}

fn w_counts(out: &mut String, c: &OpCounts) {
    let _ = write!(
        out,
        "[{},{},{},{},{},{},{}]",
        c.p2m_bodies,
        c.m2m_ops,
        c.m2l_ops,
        c.l2l_ops,
        c.l2p_bodies,
        c.p2p_interactions,
        c.active_nodes
    );
}

fn w_tree(out: &mut String, t: &TreeSnapshot) {
    out.push_str("{\"nodes\":[");
    for (i, n) in t.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        w_f64(out, n.center.x);
        out.push(',');
        w_f64(out, n.center.y);
        out.push(',');
        w_f64(out, n.center.z);
        out.push(',');
        w_f64(out, n.half_width);
        let _ = write!(
            out,
            ",{},{},{},{},{},{}]",
            n.level, n.parent, n.first_child, n.begin, n.end, n.collapsed as u8
        );
    }
    out.push_str("],\"order\":");
    w_u64_slice(out, &t.order);
    out.push_str(",\"codes\":");
    w_u64_slice(out, &t.codes);
    let _ = write!(out, ",\"s_value\":{},\"root_center\":", t.s_value);
    w_vec3(out, t.root_center);
    out.push_str(",\"root_half_width\":");
    w_f64(out, t.root_half_width);
    let _ = write!(out, ",\"max_level\":{}}}", t.max_level);
}

fn w_plan(out: &mut String, p: &ListsSnapshot) {
    out.push_str("{\"theta\":");
    w_f64(out, p.theta);
    out.push_str(",\"m2l\":");
    w_lists(out, &p.m2l);
    out.push_str(",\"p2p\":");
    w_lists(out, &p.p2p);
    out.push_str(",\"rev_m2l\":");
    w_lists(out, &p.rev_m2l);
    out.push_str(",\"rev_p2p\":");
    w_lists(out, &p.rev_p2p);
    out.push_str(",\"node_counts\":[");
    for (i, c) in p.node_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_counts(out, c);
    }
    out.push_str("],\"totals\":");
    w_counts(out, &p.totals);
    out.push_str(",\"body_count\":");
    w_u64_slice(out, &p.body_count);
    out.push_str(",\"stamp\":");
    w_u64_slice(out, &p.stamp);
    let _ = write!(out, ",\"epoch\":{}}}", p.epoch);
}

fn w_engine(out: &mut String, e: &EngineSnapshot) {
    let _ = write!(out, "{{\"order\":{},\"theta\":", e.params.order);
    w_f64(out, e.params.mac.theta);
    let _ = write!(out, ",\"max_level\":{},\"domain\":", e.params.max_level);
    match e.domain {
        Some((c, hw)) => {
            out.push('[');
            w_f64(out, c.x);
            out.push(',');
            w_f64(out, c.y);
            out.push(',');
            w_f64(out, c.z);
            out.push(',');
            w_f64(out, hw);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"tree\":");
    w_tree(out, &e.tree);
    out.push_str(",\"plan\":");
    match &e.plan {
        Some(p) => w_plan(out, p),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"plan_stale\":{}}}", e.plan_stale);
}

fn w_filter(out: &mut String, f: &FilterSnapshot) {
    out.push_str("{\"window\":[");
    for (i, &v) in f.window.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, v);
    }
    let _ = write!(out, "],\"k\":{},\"alpha\":", f.k);
    w_f64(out, f.alpha);
    out.push_str(",\"ewma\":");
    match f.ewma {
        Some(v) => w_f64(out, v),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"rejected\":{}}}", f.rejected);
}

fn w_fault_event(out: &mut String, ev: &FaultEvent) {
    match *ev {
        FaultEvent::GpuSlowdown { device, factor } => {
            let _ = write!(out, "[\"gpu_slowdown\",{device},");
            w_f64(out, factor);
            out.push(']');
        }
        FaultEvent::GpuDropout { device } => {
            let _ = write!(out, "[\"gpu_dropout\",{device}]");
        }
        FaultEvent::GpuRecover { device } => {
            let _ = write!(out, "[\"gpu_recover\",{device}]");
        }
        FaultEvent::ExternalCpuLoad { factor } => {
            out.push_str("[\"cpu_load\",");
            w_f64(out, factor);
            out.push(']');
        }
        FaultEvent::TimingNoise { sigma } => {
            out.push_str("[\"noise\",");
            w_f64(out, sigma);
            out.push(']');
        }
    }
}

fn w_balancer(out: &mut String, b: &BalancerSnapshot) {
    let c = &b.cfg;
    let _ = write!(
        out,
        "{{\"s_min\":{},\"s_max\":{},\"eps\":",
        c.s_min, c.s_max
    );
    w_f64(out, c.eps_switch_s);
    out.push_str(",\"reg_frac\":");
    w_f64(out, c.regression_frac);
    let _ = write!(out, ",\"use_fgo\":{},\"fgo_batch\":", c.use_fgo);
    w_f64(out, c.fgo_batch_frac);
    let _ = write!(out, ",\"fgo_rounds\":{},\"incr_factor\":", c.fgo_max_rounds);
    w_f64(out, c.incr_factor);
    out.push_str(",\"incr_tol\":");
    w_f64(out, c.incr_tol);
    let _ = write!(
        out,
        ",\"hysteresis\":{},\"strategy\":\"{}\",\"state\":\"{}\",\"s\":{},\"lo\":{},\"hi\":{},\"best\":",
        c.regression_hysteresis,
        b.strategy.name(),
        b.state.name(),
        b.s,
        b.lo,
        b.hi
    );
    w_f64(out, b.best_compute);
    out.push_str(",\"incr_best\":");
    match b.incr_best {
        Some((s, t)) => {
            let _ = write!(out, "[{s},");
            w_f64(out, t);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"incr_dir_up\":");
    match b.incr_dir_up {
        Some(up) => {
            let _ = write!(out, "{up}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"incr_flipped\":{},\"regress_count\":{},\"last_online\":",
        b.incr_flipped, b.regress_count
    );
    match b.last_online {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"reset_best_next\":{}}}", b.reset_best_next);
}

fn w_record(out: &mut String, r: &StepRecord) {
    let _ = write!(out, "[{},{},\"{}\",", r.step, r.s, r.state.name());
    w_f64(out, r.t_cpu);
    out.push(',');
    w_f64(out, r.t_gpu);
    out.push(',');
    w_f64(out, r.t_lb);
    out.push(',');
    w_f64(out, r.gpu_efficiency);
    let _ = write!(out, ",{},{}]", r.p2p_interactions, r.m2l_ops);
}

fn w_tracker(out: &mut String, t: &TrackerSnapshot) {
    out.push_str("{\"engine\":");
    w_engine(out, &t.engine);
    out.push_str(",\"model\":[");
    let m = &t.model;
    for (i, v) in [
        m.c_p2m,
        m.c_m2m,
        m.c_m2l,
        m.c_l2l,
        m.c_l2p,
        m.c_cpu_pair,
        m.c_node,
        m.parallel_rate,
        m.c_gpu_pair,
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, v);
    }
    let _ = write!(
        out,
        "],\"model_observed\":{},\"balancer\":",
        m.is_observed()
    );
    w_balancer(out, &t.balancer);
    out.push_str(",\"records\":[");
    for (i, r) in t.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_record(out, r);
    }
    let _ = write!(out, "],\"first\":{},\"faults\":[", t.first);
    for (i, tf) in t.faults.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},", tf.step);
        w_fault_event(out, &tf.event);
        out.push(']');
    }
    out.push_str("],\"gpu_status\":");
    match &t.gpu_status {
        Some(st) => {
            out.push('[');
            for (i, d) in st.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},", d.online as u8);
                w_f64(out, d.slowdown);
                out.push(']');
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"cpu_load\":");
    w_f64(out, t.cpu_load);
    out.push_str(",\"noise_sigma\":");
    w_f64(out, t.noise_sigma);
    let _ = write!(out, ",\"noise_state\":{},\"filter_cpu\":", t.noise_state);
    w_filter(out, &t.filter_cpu);
    out.push_str(",\"filter_gpu\":");
    w_filter(out, &t.filter_gpu);
    out.push_str(",\"pos\":[");
    for (i, p) in t.pos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w_f64(out, p.x);
        out.push(',');
        w_f64(out, p.y);
        out.push(',');
        w_f64(out, p.z);
    }
    out.push_str("]}");
}

/// Wrap a payload in the versioned, checksummed envelope.
fn seal(kind: &str, payload: String) -> String {
    let checksum = fnv1a64(payload.as_bytes());
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"{kind}\",\"checksum\":\"{checksum:016x}\",\"payload\":{payload}}}"
    )
}

/// Serialize an engine snapshot to checkpoint text.
pub fn engine_to_json(snap: &EngineSnapshot) -> String {
    let mut payload = String::with_capacity(1 << 16);
    w_engine(&mut payload, snap);
    seal("engine", payload)
}

/// Serialize a tracker snapshot to checkpoint text.
pub fn tracker_to_json(snap: &TrackerSnapshot) -> String {
    let mut payload = String::with_capacity(1 << 18);
    w_tracker(&mut payload, snap);
    seal("tracker", payload)
}

// ---- typed readers over the parsed tree ----

/// Strict typed access to a parsed payload: every number the writer emits
/// is a decimal `u64` (floats as bit patterns), so anything else is an
/// error, and every failure names what was expected.
trait Read {
    fn field(&self, key: &str) -> Result<&Json, String>;
    fn arr(&self) -> Result<&[Json], String>;
    fn str(&self) -> Result<&str, String>;
    fn boolean(&self) -> Result<bool, String>;
    fn u64(&self) -> Result<u64, String>;
    fn opt<T>(&self, read: impl FnOnce(&Json) -> Result<T, String>) -> Result<Option<T>, String>;

    fn list<T>(&self, read: impl FnMut(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.arr()?.iter().map(read).collect()
    }
    /// A fixed-length array, for destructuring.
    fn fixed<const N: usize>(&self, what: &str) -> Result<&[Json; N], String> {
        self.arr()?
            .try_into()
            .map_err(|_| format!("{what} needs {N} fields"))
    }
    /// An unsigned integer that must fit `T`.
    fn int<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let v = self.u64()?;
        T::try_from(v).map_err(|_| format!("{v} overflows {}", std::any::type_name::<T>()))
    }
    /// An `f64` stored as its bit pattern.
    fn f64bits(&self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl Read for Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn arr(&self) -> Result<&[Json], String> {
        self.as_arr().ok_or_else(|| "expected an array".into())
    }

    fn str(&self) -> Result<&str, String> {
        self.as_str().ok_or_else(|| "expected a string".into())
    }

    fn boolean(&self) -> Result<bool, String> {
        self.as_bool().ok_or_else(|| "expected a bool".into())
    }

    fn u64(&self) -> Result<u64, String> {
        match self {
            Json::U64(v) => Ok(*v),
            _ => Err("expected an unsigned integer".into()),
        }
    }

    fn opt<T>(&self, read: impl FnOnce(&Json) -> Result<T, String>) -> Result<Option<T>, String> {
        match self {
            Json::Null => Ok(None),
            v => read(v).map(Some),
        }
    }
}

fn r_vec3(v: &Json) -> Result<Vec3, String> {
    let [x, y, z] = v.fixed("Vec3")?;
    Ok(Vec3::new(x.f64bits()?, y.f64bits()?, z.f64bits()?))
}

fn r_u32_vec(v: &Json) -> Result<Vec<u32>, String> {
    v.list(Json::int)
}

fn r_lists(v: &Json) -> Result<Vec<Vec<u32>>, String> {
    v.list(r_u32_vec)
}

fn r_counts(v: &Json) -> Result<OpCounts, String> {
    let [p2m, m2m, m2l, l2l, l2p, p2p, active] = v.fixed("OpCounts")?;
    Ok(OpCounts {
        p2m_bodies: p2m.u64()?,
        m2m_ops: m2m.u64()?,
        m2l_ops: m2l.u64()?,
        l2l_ops: l2l.u64()?,
        l2p_bodies: l2p.u64()?,
        p2p_interactions: p2p.u64()?,
        active_nodes: active.u64()?,
    })
}

fn r_node(v: &Json) -> Result<Node, String> {
    let [x, y, z, hw, level, parent, first_child, begin, end, collapsed] = v.fixed("node")?;
    Ok(Node {
        center: Vec3::new(x.f64bits()?, y.f64bits()?, z.f64bits()?),
        half_width: hw.f64bits()?,
        level: level.int()?,
        parent: parent.int()?,
        first_child: first_child.int()?,
        begin: begin.int()?,
        end: end.int()?,
        collapsed: collapsed.u64()? != 0,
    })
}

fn r_tree(v: &Json) -> Result<TreeSnapshot, String> {
    Ok(TreeSnapshot {
        nodes: v.field("nodes")?.list(r_node)?,
        order: r_u32_vec(v.field("order")?)?,
        codes: v.field("codes")?.list(Json::u64)?,
        s_value: v.field("s_value")?.int()?,
        root_center: r_vec3(v.field("root_center")?)?,
        root_half_width: v.field("root_half_width")?.f64bits()?,
        max_level: v.field("max_level")?.int()?,
    })
}

fn r_plan(v: &Json) -> Result<ListsSnapshot, String> {
    Ok(ListsSnapshot {
        theta: v.field("theta")?.f64bits()?,
        m2l: r_lists(v.field("m2l")?)?,
        p2p: r_lists(v.field("p2p")?)?,
        rev_m2l: r_lists(v.field("rev_m2l")?)?,
        rev_p2p: r_lists(v.field("rev_p2p")?)?,
        node_counts: v.field("node_counts")?.list(r_counts)?,
        totals: r_counts(v.field("totals")?)?,
        body_count: r_u32_vec(v.field("body_count")?)?,
        stamp: r_u32_vec(v.field("stamp")?)?,
        epoch: v.field("epoch")?.int()?,
    })
}

fn r_engine(v: &Json) -> Result<EngineSnapshot, String> {
    let theta = v.field("theta")?.f64bits()?;
    if !(theta > 0.0 && theta <= 1.0) {
        return Err(format!("MAC theta {theta} out of (0, 1]"));
    }
    let domain = v.field("domain")?.opt(|d| {
        let [x, y, z, hw] = d.fixed("domain [cx, cy, cz, hw]")?;
        Ok((
            Vec3::new(x.f64bits()?, y.f64bits()?, z.f64bits()?),
            hw.f64bits()?,
        ))
    })?;
    Ok(EngineSnapshot {
        params: FmmParams {
            order: v.field("order")?.int()?,
            mac: Mac::new(theta),
            max_level: v.field("max_level")?.int()?,
        },
        domain,
        tree: r_tree(v.field("tree")?)?,
        plan: v.field("plan")?.opt(r_plan)?,
        plan_stale: v.field("plan_stale")?.boolean()?,
    })
}

fn r_filter(v: &Json) -> Result<FilterSnapshot, String> {
    Ok(FilterSnapshot {
        window: v.field("window")?.list(Json::f64bits)?,
        k: v.field("k")?.int()?,
        alpha: v.field("alpha")?.f64bits()?,
        ewma: v.field("ewma")?.opt(Json::f64bits)?,
        rejected: v.field("rejected")?.u64()?,
    })
}

fn r_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "static_s" => Ok(Strategy::StaticS),
        "enforce_only" => Ok(Strategy::EnforceOnly),
        "full" => Ok(Strategy::Full),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

fn r_state(name: &str) -> Result<LbState, String> {
    match name {
        "search" => Ok(LbState::Search),
        "incremental" => Ok(LbState::Incremental),
        "observation" => Ok(LbState::Observation),
        "frozen" => Ok(LbState::Frozen),
        "recovery" => Ok(LbState::Recovery),
        other => Err(format!("unknown LB state '{other}'")),
    }
}

fn r_balancer(v: &Json) -> Result<BalancerSnapshot, String> {
    Ok(BalancerSnapshot {
        cfg: LbConfig {
            s_min: v.field("s_min")?.int()?,
            s_max: v.field("s_max")?.int()?,
            eps_switch_s: v.field("eps")?.f64bits()?,
            regression_frac: v.field("reg_frac")?.f64bits()?,
            use_fgo: v.field("use_fgo")?.boolean()?,
            fgo_batch_frac: v.field("fgo_batch")?.f64bits()?,
            fgo_max_rounds: v.field("fgo_rounds")?.int()?,
            incr_factor: v.field("incr_factor")?.f64bits()?,
            incr_tol: v.field("incr_tol")?.f64bits()?,
            regression_hysteresis: v.field("hysteresis")?.int()?,
        },
        strategy: r_strategy(v.field("strategy")?.str()?)?,
        state: r_state(v.field("state")?.str()?)?,
        s: v.field("s")?.int()?,
        lo: v.field("lo")?.int()?,
        hi: v.field("hi")?.int()?,
        best_compute: v.field("best")?.f64bits()?,
        incr_best: v.field("incr_best")?.opt(|p| {
            let [s, t] = p.fixed("incr_best [s, t]")?;
            Ok((s.int()?, t.f64bits()?))
        })?,
        incr_dir_up: v.field("incr_dir_up")?.opt(Json::boolean)?,
        incr_flipped: v.field("incr_flipped")?.boolean()?,
        regress_count: v.field("regress_count")?.int()?,
        last_online: v.field("last_online")?.opt(Json::int)?,
        reset_best_next: v.field("reset_best_next")?.boolean()?,
    })
}

fn r_record(v: &Json) -> Result<StepRecord, String> {
    let [step, s, state, t_cpu, t_gpu, t_lb, eff, p2p, m2l] = v.fixed("step record")?;
    Ok(StepRecord {
        step: step.int()?,
        s: s.int()?,
        state: r_state(state.str()?)?,
        t_cpu: t_cpu.f64bits()?,
        t_gpu: t_gpu.f64bits()?,
        t_lb: t_lb.f64bits()?,
        gpu_efficiency: eff.f64bits()?,
        p2p_interactions: p2p.u64()?,
        m2l_ops: m2l.u64()?,
    })
}

fn r_fault_event(v: &Json) -> Result<FaultEvent, String> {
    let (kind, args) = v.arr()?.split_first().ok_or("empty fault event")?;
    Ok(match (kind.str()?, args) {
        ("gpu_slowdown", [device, factor]) => FaultEvent::GpuSlowdown {
            device: device.int()?,
            factor: factor.f64bits()?,
        },
        ("gpu_dropout", [device]) => FaultEvent::GpuDropout {
            device: device.int()?,
        },
        ("gpu_recover", [device]) => FaultEvent::GpuRecover {
            device: device.int()?,
        },
        ("cpu_load", [factor]) => FaultEvent::ExternalCpuLoad {
            factor: factor.f64bits()?,
        },
        ("noise", [sigma]) => FaultEvent::TimingNoise {
            sigma: sigma.f64bits()?,
        },
        (other, _) => return Err(format!("malformed fault event '{other}'")),
    })
}

fn r_tracker(v: &Json) -> Result<TrackerSnapshot, String> {
    let [p2m, m2m, m2l, l2l, l2p, cpu_pair, node, rate, gpu_pair] =
        v.field("model")?.fixed("model")?;
    let mut model = CostModel::new();
    model.c_p2m = p2m.f64bits()?;
    model.c_m2m = m2m.f64bits()?;
    model.c_m2l = m2l.f64bits()?;
    model.c_l2l = l2l.f64bits()?;
    model.c_l2p = l2p.f64bits()?;
    model.c_cpu_pair = cpu_pair.f64bits()?;
    model.c_node = node.f64bits()?;
    model.parallel_rate = rate.f64bits()?;
    model.c_gpu_pair = gpu_pair.f64bits()?;
    model.set_observed(v.field("model_observed")?.boolean()?);
    // Rebuild through push(): within-step insertion order is preserved for
    // an already-sorted script, and cross-step order is re-established even
    // if the text was hand-edited.
    let mut faults = FaultSchedule::new();
    for tf in v.field("faults")?.arr()? {
        let [step, event] = tf.fixed("timed fault [step, event]")?;
        faults.push(step.int()?, r_fault_event(event)?);
    }
    let gpu_status = v.field("gpu_status")?.opt(|st| {
        st.list(|d| {
            let [online, slowdown] = d.fixed("device status [online, slowdown]")?;
            Ok(DeviceStatus {
                online: online.u64()? != 0,
                slowdown: slowdown.f64bits()?,
            })
        })
    })?;
    let flat = v.field("pos")?.list(Json::f64bits)?;
    if flat.len() % 3 != 0 {
        return Err("pos stream length not a multiple of 3".into());
    }
    let pos = flat
        .chunks_exact(3)
        .map(|xyz| Vec3::new(xyz[0], xyz[1], xyz[2]))
        .collect();
    Ok(TrackerSnapshot {
        engine: r_engine(v.field("engine")?)?,
        model,
        balancer: r_balancer(v.field("balancer")?)?,
        records: v.field("records")?.list(r_record)?,
        first: v.field("first")?.boolean()?,
        faults,
        gpu_status,
        cpu_load: v.field("cpu_load")?.f64bits()?,
        noise_sigma: v.field("noise_sigma")?.f64bits()?,
        noise_state: v.field("noise_state")?.u64()?,
        filter_cpu: r_filter(v.field("filter_cpu")?)?,
        filter_gpu: r_filter(v.field("filter_gpu")?)?,
        pos,
    })
}

// ---- envelope verification ----

/// Parse and verify the envelope: schema version, kind, and checksum over
/// the exact bytes of the payload value. Returns the parsed payload.
fn open(text: &str, kind: &str) -> Result<Json, Error> {
    let (root, spans) =
        Json::parse_spanned(text).map_err(|e| Error::Checkpoint(format!("parse: {e}")))?;
    let Json::Obj(mut members) = root else {
        return Err(Error::Checkpoint("envelope is not a JSON object".into()));
    };
    // `spans[i]` is the exact byte range of `members[i]`'s value.
    let index = |key: &str| {
        members
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| Error::Checkpoint(format!("missing field '{key}'")))
    };
    let (iv, ik, ic, ip) = (
        index("schema_version")?,
        index("kind")?,
        index("checksum")?,
        index("payload")?,
    );
    let version = members[iv].1.u64().map_err(Error::Checkpoint)?;
    if version != SCHEMA_VERSION as u64 {
        return Err(Error::Checkpoint(format!(
            "schema version {version} unsupported (this build reads {SCHEMA_VERSION})"
        )));
    }
    let got_kind = members[ik].1.str().map_err(Error::Checkpoint)?;
    if got_kind != kind {
        return Err(Error::Checkpoint(format!(
            "checkpoint kind '{got_kind}', expected '{kind}'"
        )));
    }
    let declared = members[ic].1.str().map_err(Error::Checkpoint)?;
    let actual = format!("{:016x}", fnv1a64(text[spans[ip].clone()].as_bytes()));
    if declared != actual {
        return Err(Error::Checkpoint(format!(
            "checksum mismatch: declared {declared}, computed {actual}"
        )));
    }
    Ok(members.swap_remove(ip).1)
}

/// Parse and verify an engine checkpoint.
pub fn engine_from_json(text: &str) -> Result<EngineSnapshot, Error> {
    let payload = open(text, "engine")?;
    r_engine(&payload).map_err(Error::Checkpoint)
}

/// Parse and verify a tracker checkpoint.
pub fn tracker_from_json(text: &str) -> Result<TrackerSnapshot, Error> {
    let payload = open(text, "tracker")?;
    r_tracker(&payload).map_err(Error::Checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FmmParams;
    use crate::engine::FmmEngine;
    use fmm_math::GravityKernel;
    use nbody::plummer;

    fn sample_engine() -> FmmEngine<GravityKernel> {
        let b = plummer(800, 1.0, 1.0, 901);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 48);
        e.refresh_lists();
        e
    }

    #[test]
    fn engine_checkpoint_roundtrips_exactly() {
        let e = sample_engine();
        let snap = e.checkpoint_state();
        let text = engine_to_json(&snap);
        let back = engine_from_json(&text).unwrap();
        assert_eq!(back.tree.nodes.len(), snap.tree.nodes.len());
        assert_eq!(back.tree.order, snap.tree.order);
        assert_eq!(back.tree.codes, snap.tree.codes);
        for (a, b) in back.tree.nodes.iter().zip(&snap.tree.nodes) {
            assert_eq!(a.center.x.to_bits(), b.center.x.to_bits());
            assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
            assert_eq!(a.begin, b.begin);
            assert_eq!(a.end, b.end);
            assert_eq!(a.collapsed, b.collapsed);
        }
        let (pa, pb) = (back.plan.unwrap(), snap.plan.unwrap());
        assert_eq!(pa.m2l, pb.m2l);
        assert_eq!(pa.p2p, pb.p2p);
        assert_eq!(pa.rev_m2l, pb.rev_m2l);
        assert_eq!(pa.epoch, pb.epoch);
        // Serialization is deterministic: same state, same bytes.
        assert_eq!(text, engine_to_json(&e.checkpoint_state()));
    }

    #[test]
    fn bit_patterns_survive_nan_and_negative_zero() {
        let mut out = String::new();
        for v in [f64::NAN, f64::INFINITY, -0.0, 1.0e-308] {
            out.clear();
            w_f64(&mut out, v);
            let parsed = Json::parse(&out).unwrap();
            assert_eq!(parsed.f64bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn tampered_payload_fails_checksum() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        // Flip one digit inside the payload.
        let at = text.find("\"payload\":").unwrap() + 20;
        let mut bytes = text.into_bytes();
        let old = bytes[at];
        bytes[at] = if old == b'3' { b'4' } else { b'3' };
        let tampered = String::from_utf8(bytes).unwrap();
        let err = engine_from_json(&tampered);
        assert!(
            matches!(err, Err(Error::Checkpoint(ref m)) if m.contains("checksum") || m.contains("parse")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let bumped = text.replacen("\"schema_version\":1", "\"schema_version\":2", 1);
        let err = engine_from_json(&bumped).unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint(ref m) if m.contains("schema version")),
            "{err}"
        );
    }

    #[test]
    fn wrong_kind_is_refused() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let err = tracker_from_json(&text).unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint(ref m) if m.contains("kind")),
            "{err}"
        );
    }

    #[test]
    fn restored_engine_passes_audits() {
        let e = sample_engine();
        let text = engine_to_json(&e.checkpoint_state());
        let snap = engine_from_json(&text).unwrap();
        let restored = FmmEngine::restore_state(GravityKernel::default(), snap).unwrap();
        restored.audit_tree().unwrap();
        restored.audit_plan().unwrap();
        assert_eq!(restored.tree().s_value(), e.tree().s_value());
        assert_eq!(restored.plan_epoch(), e.plan_epoch());
    }

    #[test]
    fn garbage_inputs_produce_structured_errors() {
        for text in ["", "{", "[1,2", "{\"schema_version\":true}", "nonsense"] {
            assert!(matches!(engine_from_json(text), Err(Error::Checkpoint(_))));
        }
    }

    #[test]
    fn bytes_after_the_envelope_are_rejected() {
        // A multi-byte character after the root object used to be sliced
        // through when the payload was taken as "everything up to the last
        // byte"; now anything but whitespace after the envelope is a parse
        // error, and the checksum covers exactly the payload value's bytes.
        let tail = "{\"schema_version\":1,\"kind\":\"engine\",\"checksum\":\"0\",\"payload\":{}}é";
        let err = engine_from_json(tail).unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint(ref m) if m.contains("trailing")),
            "{err}"
        );
        let text = engine_to_json(&sample_engine().checkpoint_state());
        for suffix in ["x", "}", " 1", "\u{e9}"] {
            let err = engine_from_json(&format!("{text}{suffix}")).unwrap_err();
            assert!(
                matches!(err, Error::Checkpoint(ref m) if m.contains("parse")),
                "{err}"
            );
        }
        // Trailing whitespace is not part of the payload bytes.
        assert!(engine_from_json(&format!("{text}\n")).is_ok());
        // The payload need not be the last member.
        let (head, payload) = text.split_at(text.find(",\"payload\"").unwrap());
        let moved = format!("{{{},{}}}", &payload[1..payload.len() - 1], &head[1..]);
        assert!(engine_from_json(&moved).is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for text in ["[".repeat(200_000), "{\"payload\":".repeat(200_000)] {
            let err = engine_from_json(&text).unwrap_err();
            assert!(
                matches!(err, Error::Checkpoint(ref m) if m.contains("nesting")),
                "{err}"
            );
        }
    }
}
