//! Flat gate-level netlist: instances, nets, ports.
//!
//! # Storage model
//!
//! The netlist is stored struct-of-arrays: one flat, exactly-indexed
//! array per field (names, masters, positions, …) instead of one struct
//! per entity, and net → pin fan-out lives in a CSR-style shared pin
//! pool (`pin_keys`/`pin_aux`) addressed by per-net `(offset, len,
//! capacity)` triples instead of a `Vec<PinRef>` per net. Names are
//! interned [`Symbol`]s (see [`crate::intern`]), resolved to text only at
//! formatting time. Rarely-used per-entity attributes (tier/fixed flags,
//! group membership, clock/domain flags, relocation capacities) are
//! **pay-for-use**: their arrays stay empty — meaning "all default" —
//! until the first non-default write materializes them.
//!
//! Two invariants make this refactor output-bit-preserving:
//!
//! * **Fill order is construction order.** `connect_sink` appends to the
//!   net's CSR span in call order; every accessor (`sinks`, `pins`,
//!   iteration) yields pins in exactly the order the old per-net `Vec`
//!   held them, so any order-sensitive accumulation downstream (HPWL
//!   sums, SA move sequences, report rows) sees identical sequences.
//! * **Relocation is invisible.** When a net's span cannot grow in place
//!   it is copied to the pool tail with doubled capacity (old slots
//!   become garbage). Only `offset` changes — never the per-net pin
//!   sequence — so interleaved construction (the clock-trunk pattern in
//!   `foldic-t2`) costs O(n log n) pool traffic, bounded slack, and zero
//!   behavioral difference.
//!
//! Accessors return small by-value views ([`Inst`], [`Net`]) or
//! write-back guards ([`InstMut`], [`NetMut`]) so call sites keep the
//! field-access style of the old struct-per-entity API.

use crate::block::{Port, PortDir};
use crate::intern::{DerivedName, Interner, NameRef, Symbol, Tmpl};
use crate::{GroupId, InstId, NetId, PortId};
use foldic_geom::{Point, Tier};
use foldic_tech::cells::MasterId;
use foldic_tech::{MacroKind, Technology};
use std::ops::{Deref, DerefMut};

/// Clock domain of a net, port or block.
///
/// The T2 has two domains relevant to the study: the CPU clock (500 MHz
/// target) driving cores, caches and the crossbar, and the I/O clock
/// (250 MHz) driving the network interface unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// CPU clock domain (500 MHz in the study).
    Cpu,
    /// I/O clock domain (250 MHz in the study).
    Io,
}

impl ClockDomain {
    /// Clock frequency in GHz under `tech`.
    pub fn frequency_ghz(self, tech: &Technology) -> f64 {
        match self {
            ClockDomain::Cpu => tech.cpu_clock_ghz,
            ClockDomain::Io => tech.io_clock_ghz,
        }
    }

    /// Clock period in ps under `tech`.
    pub fn period_ps(self, tech: &Technology) -> f64 {
        1000.0 / self.frequency_ghz(tech)
    }
}

/// What an instance instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstMaster {
    /// A standard cell from the cell library.
    Cell(MasterId),
    /// A hard macro from the macro library.
    Macro(MacroKind),
}

impl InstMaster {
    /// `true` for hard macros.
    pub fn is_macro(self) -> bool {
        matches!(self, InstMaster::Macro(_))
    }
}

/// Packed master encoding: bit 31 selects macro (index into
/// [`MacroKind::ALL`]) vs standard cell ([`MasterId`] payload).
const MASTER_MACRO_BIT: u32 = 1 << 31;

pub(crate) fn encode_master(m: InstMaster) -> u32 {
    match m {
        InstMaster::Cell(id) => {
            debug_assert!(id.0 < MASTER_MACRO_BIT);
            id.0
        }
        InstMaster::Macro(kind) => {
            let idx = MacroKind::ALL
                .iter()
                .position(|k| *k == kind)
                .expect("MacroKind::ALL covers every kind") as u32;
            MASTER_MACRO_BIT | idx
        }
    }
}

pub(crate) fn decode_master(raw: u32) -> InstMaster {
    if raw & MASTER_MACRO_BIT != 0 {
        InstMaster::Macro(MacroKind::ALL[(raw & !MASTER_MACRO_BIT) as usize])
    } else {
        InstMaster::Cell(MasterId(raw))
    }
}

/// `true` when `raw` decodes to a structurally valid master (snapshot
/// validation; cell ids are checked against the library elsewhere).
pub(crate) fn master_raw_valid(raw: u32) -> bool {
    raw & MASTER_MACRO_BIT == 0 || ((raw & !MASTER_MACRO_BIT) as usize) < MacroKind::ALL.len()
}

/// A reference to one pin: an instance output, an instance input, or a
/// block boundary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRef {
    /// The (single) output pin of an instance.
    InstOut(InstId),
    /// The `pin`-th input pin of an instance.
    InstIn(InstId, u16),
    /// A boundary port of the owning block.
    Port(PortId),
}

impl PinRef {
    /// Reference to the output pin of `inst`.
    pub fn output(inst: InstId) -> Self {
        PinRef::InstOut(inst)
    }

    /// Reference to input pin `pin` of `inst`.
    pub fn input(inst: InstId, pin: u16) -> Self {
        PinRef::InstIn(inst, pin)
    }

    /// Reference to a boundary port.
    pub fn port(port: PortId) -> Self {
        PinRef::Port(port)
    }

    /// The instance this pin belongs to, if any.
    pub fn inst(self) -> Option<InstId> {
        match self {
            PinRef::InstOut(i) | PinRef::InstIn(i, _) => Some(i),
            PinRef::Port(_) => None,
        }
    }
}

/// Packed pin encoding: 2-bit tag in the key's top bits, 30-bit entity
/// id below, input-pin number in a parallel `u16` array. 6 bytes per
/// pin instead of a 8-byte `PinRef` plus `Vec` headers.
const PIN_TAG_SHIFT: u32 = 30;
const PIN_ID_MASK: u32 = (1 << PIN_TAG_SHIFT) - 1;
const PIN_TAG_OUT: u32 = 0;
const PIN_TAG_IN: u32 = 1;
const PIN_TAG_PORT: u32 = 2;
/// Driver slot value for "no driver" (an all-ones key is tag 3, which
/// no valid pin uses).
const PIN_NONE: u32 = u32::MAX;

pub(crate) fn encode_pin(pin: PinRef) -> (u32, u16) {
    let (tag, id, aux) = match pin {
        PinRef::InstOut(i) => (PIN_TAG_OUT, i.0, 0),
        PinRef::InstIn(i, pin) => (PIN_TAG_IN, i.0, pin),
        PinRef::Port(p) => (PIN_TAG_PORT, p.0, 0),
    };
    debug_assert!(id <= PIN_ID_MASK);
    ((tag << PIN_TAG_SHIFT) | id, aux)
}

pub(crate) fn decode_pin(key: u32, aux: u16) -> PinRef {
    let id = key & PIN_ID_MASK;
    match key >> PIN_TAG_SHIFT {
        PIN_TAG_OUT => PinRef::InstOut(InstId(id)),
        PIN_TAG_IN => PinRef::InstIn(InstId(id), aux),
        PIN_TAG_PORT => PinRef::Port(PortId(id)),
        _ => unreachable!("invalid pin tag"),
    }
}

/// `true` when `(key, aux)` decodes to a structurally valid pin with the
/// entity id in range (snapshot validation).
pub(crate) fn pin_raw_valid(key: u32, aux: u16, n_insts: u32, n_ports: u32) -> bool {
    let id = key & PIN_ID_MASK;
    match key >> PIN_TAG_SHIFT {
        PIN_TAG_OUT => id < n_insts && aux == 0,
        PIN_TAG_IN => id < n_insts,
        PIN_TAG_PORT => id < n_ports && aux == 0,
        _ => false,
    }
}

/// Instance flag bits (pay-for-use `inst_flags` array).
const FLAG_TOP: u8 = 1;
const FLAG_FIXED: u8 = 1 << 1;
/// Net flag bits (pay-for-use `net_flags` array).
const FLAG_IO: u8 = 1;
const FLAG_CLOCK: u8 = 1 << 1;
/// `inst_groups` value for "no group".
const GROUP_NONE: u32 = u32::MAX;

/// By-value view of one placed instance (a decode of the SoA columns;
/// mutate through [`Netlist::inst_mut`]).
#[derive(Debug, Clone, Copy)]
pub struct Inst {
    /// Instance name (resolve via [`Netlist::name_of`]).
    pub name: Symbol,
    /// What is instantiated.
    pub master: InstMaster,
    /// Placement location (centre of the footprint) in block-local µm.
    pub pos: Point,
    /// Die assignment when the owning block is folded; `Tier::Bottom` for
    /// unfolded blocks.
    pub tier: Tier,
    /// `true` when the placer must not move the instance (pre-placed
    /// macros, pads).
    pub fixed: bool,
    /// Optional group membership (FUB inside SPC, PCX/CPX inside CCX).
    pub group: Option<GroupId>,
}

impl Inst {
    /// Footprint area in µm² under `tech`.
    pub fn area_um2(&self, tech: &Technology) -> f64 {
        match self.master {
            InstMaster::Cell(id) => tech.cells.master(id).area_um2,
            InstMaster::Macro(kind) => tech.macros.get(kind).area_um2(),
        }
    }

    /// Footprint width and height in µm under `tech`.
    pub fn dims_um(&self, tech: &Technology) -> (f64, f64) {
        match self.master {
            InstMaster::Cell(id) => {
                let m = tech.cells.master(id);
                (m.width_um, tech.row_height)
            }
            InstMaster::Macro(kind) => {
                let m = tech.macros.get(kind);
                (m.width_um, m.height_um)
            }
        }
    }

    /// Footprint rectangle centred on `pos` under `tech`.
    pub fn rect(&self, tech: &Technology) -> foldic_geom::Rect {
        let (w, h) = self.dims_um(tech);
        foldic_geom::Rect::centered(self.pos, w, h)
    }
}

/// Write-back guard for one instance: dereferences to [`Inst`], and the
/// edited view is encoded back into the SoA columns on drop, so
/// `nl.inst_mut(id).pos = p;` keeps working.
pub struct InstMut<'a> {
    nl: &'a mut Netlist,
    id: InstId,
    view: Inst,
}

impl Deref for InstMut<'_> {
    type Target = Inst;
    fn deref(&self) -> &Inst {
        &self.view
    }
}

impl DerefMut for InstMut<'_> {
    fn deref_mut(&mut self) -> &mut Inst {
        &mut self.view
    }
}

impl Drop for InstMut<'_> {
    fn drop(&mut self) {
        self.nl.write_inst(self.id, self.view);
    }
}

/// Mutable core of a net (everything except the CSR-backed sink list,
/// which is edited through [`Netlist::connect_sink`] and friends).
#[derive(Debug, Clone, Copy)]
pub struct NetData {
    /// Net name (resolve via [`Netlist::name_of`]).
    pub name: Symbol,
    /// The driving pin; `None` only transiently during construction.
    pub driver: Option<PinRef>,
    /// Clock domain the net toggles in.
    pub domain: ClockDomain,
    /// `true` for clock-distribution nets.
    pub is_clock: bool,
}

/// By-value view of one net. Carries a borrow of the netlist so sink and
/// pin iteration work directly on the view.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    nl: &'a Netlist,
    id: NetId,
    /// Net name (resolve via [`Netlist::name_of`]).
    pub name: Symbol,
    /// The driving pin; `None` only transiently during construction.
    pub driver: Option<PinRef>,
    /// Clock domain the net toggles in.
    pub domain: ClockDomain,
    /// `true` for clock-distribution nets.
    pub is_clock: bool,
}

impl<'a> Net<'a> {
    /// Fan-out (sink count).
    pub fn fanout(&self) -> usize {
        self.nl.net_len[self.id.index()] as usize
    }

    /// The `k`-th sink pin, in `connect_sink` order.
    pub fn sink(&self, k: usize) -> PinRef {
        let (keys, aux) = self.nl.net_span(self.id);
        decode_pin(keys[k], aux[k])
    }

    /// Iterates over the sink pins in `connect_sink` order.
    pub fn sinks(self) -> impl ExactSizeIterator<Item = PinRef> + Clone + 'a {
        let (keys, aux) = self.nl.net_span(self.id);
        keys.iter().zip(aux).map(|(&k, &a)| decode_pin(k, a))
    }

    /// Iterates over every pin on the net, driver first.
    pub fn pins(self) -> impl Iterator<Item = PinRef> + Clone + 'a {
        self.driver.into_iter().chain(self.sinks())
    }
}

impl std::fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.nl.name_of(self.name))
            .field("driver", &self.driver)
            .field("fanout", &self.fanout())
            .field("domain", &self.domain)
            .field("is_clock", &self.is_clock)
            .finish()
    }
}

/// Write-back guard for one net's core fields: dereferences to
/// [`NetData`], written back into the SoA columns on drop, so
/// `nl.net_mut(id).is_clock = true;` keeps working.
pub struct NetMut<'a> {
    nl: &'a mut Netlist,
    id: NetId,
    view: NetData,
}

impl Deref for NetMut<'_> {
    type Target = NetData;
    fn deref(&self) -> &NetData {
        &self.view
    }
}

impl DerefMut for NetMut<'_> {
    fn deref_mut(&mut self) -> &mut NetData {
        &mut self.view
    }
}

impl Drop for NetMut<'_> {
    fn drop(&mut self) {
        self.nl.write_net(self.id, self.view);
    }
}

/// A name acceptable to the construction API: plain text (interned), a
/// pre-interned [`Symbol`] of this netlist, or a [`Tmpl::at`] derived
/// name (the million-cell path: no per-entity string is ever built).
pub trait IntoName {
    /// Resolves to a symbol in `interner`.
    fn into_symbol(self, interner: &mut Interner) -> Symbol;
}

impl IntoName for &str {
    fn into_symbol(self, interner: &mut Interner) -> Symbol {
        interner.intern(self)
    }
}

impl IntoName for &String {
    fn into_symbol(self, interner: &mut Interner) -> Symbol {
        interner.intern(self)
    }
}

impl IntoName for String {
    fn into_symbol(self, interner: &mut Interner) -> Symbol {
        interner.intern(&self)
    }
}

impl IntoName for Symbol {
    fn into_symbol(self, _: &mut Interner) -> Symbol {
        self
    }
}

impl IntoName for DerivedName {
    fn into_symbol(self, interner: &mut Interner) -> Symbol {
        interner.derived(self)
    }
}

/// Instance → nets incidence in CSR form (offsets + one flat id array),
/// the replacement for the old `Vec<Vec<NetId>>` map.
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<u32>,
    data: Vec<NetId>,
}

impl Adjacency {
    /// The nets incident to `inst`, each listed once, in net-id order of
    /// first touch (identical to the old per-inst `Vec` contents).
    pub fn row(&self, inst: InstId) -> &[NetId] {
        let i = inst.index();
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows (instances).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat gate-level netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Netlist (module) name.
    pub name: String,
    pub(crate) interner: Interner,
    // Instance columns (exact length = instance count).
    pub(crate) inst_names: Vec<Symbol>,
    pub(crate) inst_masters: Vec<u32>,
    pub(crate) inst_pos: Vec<Point>,
    /// Pay-for-use: empty ⇒ every instance is Bottom-tier and movable.
    pub(crate) inst_flags: Vec<u8>,
    /// Pay-for-use: empty ⇒ no instance has a group.
    pub(crate) inst_groups: Vec<u32>,
    // Net columns.
    pub(crate) net_names: Vec<Symbol>,
    pub(crate) net_driver_key: Vec<u32>,
    pub(crate) net_driver_aux: Vec<u16>,
    pub(crate) net_off: Vec<u32>,
    pub(crate) net_len: Vec<u32>,
    /// Pay-for-use: empty ⇒ every net's capacity equals its length
    /// (true until the first post-construction relocation).
    pub(crate) net_caps: Vec<u32>,
    /// Pay-for-use: empty ⇒ every net is Cpu-domain, non-clock.
    pub(crate) net_flags: Vec<u8>,
    // Shared CSR pin pool (sinks only; drivers live in their columns).
    pub(crate) pin_keys: Vec<u32>,
    pub(crate) pin_aux: Vec<u16>,
    pub(crate) ports: Vec<Port>,
    pub(crate) groups: Vec<Symbol>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            interner: Interner::default(),
            inst_names: Vec::new(),
            inst_masters: Vec::new(),
            inst_pos: Vec::new(),
            inst_flags: Vec::new(),
            inst_groups: Vec::new(),
            net_names: Vec::new(),
            net_driver_key: Vec::new(),
            net_driver_aux: Vec::new(),
            net_off: Vec::new(),
            net_len: Vec::new(),
            net_caps: Vec::new(),
            net_flags: Vec::new(),
            pin_keys: Vec::new(),
            pin_aux: Vec::new(),
            ports: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Creates an empty netlist with exact-capacity columns for a known
    /// entity census (the streaming-construction path: no growth
    /// reallocations, no slack).
    pub fn with_capacity(name: impl Into<String>, insts: usize, nets: usize, pins: usize) -> Self {
        let mut nl = Self::new(name);
        nl.inst_names.reserve_exact(insts);
        nl.inst_masters.reserve_exact(insts);
        nl.inst_pos.reserve_exact(insts);
        nl.net_names.reserve_exact(nets);
        nl.net_driver_key.reserve_exact(nets);
        nl.net_driver_aux.reserve_exact(nets);
        nl.net_off.reserve_exact(nets);
        nl.net_len.reserve_exact(nets);
        nl.pin_keys.reserve_exact(pins);
        nl.pin_aux.reserve_exact(pins);
        nl
    }

    // ---- naming -----------------------------------------------------------

    /// Registers a `{prefix}{index}{suffix}` derived-name template; name
    /// entities with `tmpl.at(i)` without building any string.
    pub fn name_template(&mut self, prefix: &str, suffix: &str) -> Tmpl {
        self.interner.template(prefix, suffix)
    }

    /// Interns a one-off name.
    pub fn intern(&mut self, text: &str) -> Symbol {
        self.interner.intern(text)
    }

    /// Resolves a symbol to its displayable text (formatting-time only;
    /// the hot paths never resolve names).
    pub fn name_of(&self, sym: Symbol) -> NameRef<'_> {
        self.interner.name(sym)
    }

    // ---- construction -----------------------------------------------------

    /// Adds an unplaced, movable instance and returns its id.
    pub fn add_inst(&mut self, name: impl IntoName, master: InstMaster) -> InstId {
        let id = InstId::from(self.inst_names.len());
        let sym = name.into_symbol(&mut self.interner);
        self.inst_names.push(sym);
        self.inst_masters.push(encode_master(master));
        self.inst_pos.push(Point::ORIGIN);
        if !self.inst_flags.is_empty() {
            self.inst_flags.push(0);
        }
        if !self.inst_groups.is_empty() {
            self.inst_groups.push(GROUP_NONE);
        }
        id
    }

    /// Adds an empty net and returns its id.
    pub fn add_net(&mut self, name: impl IntoName) -> NetId {
        let id = NetId::from(self.net_names.len());
        let sym = name.into_symbol(&mut self.interner);
        self.net_names.push(sym);
        self.net_driver_key.push(PIN_NONE);
        self.net_driver_aux.push(0);
        self.net_off.push(self.pin_keys.len() as u32);
        self.net_len.push(0);
        if !self.net_caps.is_empty() {
            self.net_caps.push(0);
        }
        if !self.net_flags.is_empty() {
            self.net_flags.push(0);
        }
        id
    }

    /// Adds a boundary port and returns its id.
    pub fn add_port(&mut self, name: impl IntoName, dir: PortDir, domain: ClockDomain) -> PortId {
        let id = PortId::from(self.ports.len());
        let sym = name.into_symbol(&mut self.interner);
        self.ports.push(Port {
            name: sym,
            dir,
            domain,
            pos: Point::ORIGIN,
            tier: Tier::Bottom,
        });
        id
    }

    /// Registers a named instance group (FUB, sub-crossbar) and returns its
    /// id.
    pub fn add_group(&mut self, name: &str) -> GroupId {
        let id = GroupId::from(self.groups.len());
        let sym = self.interner.intern(name);
        self.groups.push(sym);
        id
    }

    /// Sets the driver pin of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the net already has a driver.
    pub fn connect_driver(&mut self, net: NetId, pin: PinRef) {
        let i = net.index();
        assert!(
            self.net_driver_key[i] == PIN_NONE,
            "net {} already driven by {:?}",
            self.interner.name(self.net_names[i]),
            decode_pin(self.net_driver_key[i], self.net_driver_aux[i])
        );
        let (key, aux) = encode_pin(pin);
        self.net_driver_key[i] = key;
        self.net_driver_aux[i] = aux;
    }

    /// Capacity of net `i`'s CSR span.
    fn cap_of(&self, i: usize) -> u32 {
        if self.net_caps.is_empty() {
            self.net_len[i]
        } else {
            self.net_caps[i]
        }
    }

    fn materialize_caps(&mut self) {
        if self.net_caps.is_empty() {
            self.net_caps = self.net_len.clone();
        }
    }

    /// Appends a sink pin to `net`.
    ///
    /// Tail nets extend in place; a net that can no longer grow in place
    /// relocates its span to the pool tail with doubled capacity (old
    /// slots become garbage — bounded by the doubling, reclaimed only by
    /// rebuilding the netlist). Per-net pin order is always preserved.
    pub fn connect_sink(&mut self, net: NetId, pin: PinRef) {
        let (key, aux) = encode_pin(pin);
        let i = net.index();
        let len = self.net_len[i] as usize;
        let cap = self.cap_of(i) as usize;
        let off = self.net_off[i] as usize;
        let tail = self.pin_keys.len();
        if len == 0 && cap == 0 {
            // first sink: claim the pool tail
            self.net_off[i] = tail as u32;
            self.pin_keys.push(key);
            self.pin_aux.push(aux);
            self.net_len[i] = 1;
            if !self.net_caps.is_empty() {
                self.net_caps[i] = 1;
            }
        } else if len < cap {
            // spare capacity from an earlier relocation or clear
            self.pin_keys[off + len] = key;
            self.pin_aux[off + len] = aux;
            self.net_len[i] += 1;
        } else if off + len == tail {
            // the net owns the pool tail: extend in place
            self.pin_keys.push(key);
            self.pin_aux.push(aux);
            self.net_len[i] += 1;
            if !self.net_caps.is_empty() {
                self.net_caps[i] = self.net_len[i];
            }
        } else {
            // relocate to the tail with doubled capacity
            let new_cap = (len + 1).next_power_of_two().max(4);
            self.materialize_caps();
            self.pin_keys.extend_from_within(off..off + len);
            self.pin_aux.extend_from_within(off..off + len);
            self.pin_keys.push(key);
            self.pin_aux.push(aux);
            self.pin_keys.resize(tail + new_cap, 0);
            self.pin_aux.resize(tail + new_cap, 0);
            self.net_off[i] = tail as u32;
            self.net_len[i] = (len + 1) as u32;
            self.net_caps[i] = new_cap as u32;
        }
    }

    /// Drops every sink of `net` (capacity, if any, is retained for
    /// reuse; the driver is untouched).
    pub fn clear_sinks(&mut self, net: NetId) {
        let i = net.index();
        if self.net_caps.is_empty() && self.net_len[i] > 0 {
            // keep the span reusable instead of leaking it as garbage
            self.materialize_caps();
        }
        self.net_len[i] = 0;
    }

    /// Replaces the sinks of `net` with `sinks`, in the given order
    /// (in place when the span has room, else relocated to the tail).
    pub fn set_sinks(&mut self, net: NetId, sinks: &[PinRef]) {
        let i = net.index();
        let cap = self.cap_of(i) as usize;
        if sinks.len() > cap {
            self.materialize_caps();
            self.net_off[i] = self.pin_keys.len() as u32;
            self.net_caps[i] = sinks.len() as u32;
            for &pin in sinks {
                let (key, aux) = encode_pin(pin);
                self.pin_keys.push(key);
                self.pin_aux.push(aux);
            }
        } else {
            if !self.net_caps.is_empty() {
                // capacity is already tracked; reuse the span
            } else if sinks.len() < self.net_len[i] as usize {
                // shrinking under lazy caps would forget the span's true
                // size; start tracking capacities first
                self.materialize_caps();
            }
            let off = self.net_off[i] as usize;
            for (k, &pin) in sinks.iter().enumerate() {
                let (key, aux) = encode_pin(pin);
                self.pin_keys[off + k] = key;
                self.pin_aux[off + k] = aux;
            }
        }
        self.net_len[i] = sinks.len() as u32;
    }

    /// Moves the sinks of `from` selected by `take` onto `to`.
    ///
    /// This is the primitive buffer insertion builds on: create a buffer,
    /// drive `to` with its output, move the far sinks over, and add the
    /// buffer input as a sink of `from`. Relative order is preserved on
    /// both nets.
    pub fn move_sinks(&mut self, from: NetId, to: NetId, mut take: impl FnMut(PinRef) -> bool) {
        debug_assert_ne!(from, to);
        let mut moved = Vec::new();
        let mut kept = Vec::new();
        for pin in self.net(from).sinks() {
            if take(pin) {
                moved.push(pin);
            } else {
                kept.push(pin);
            }
        }
        self.set_sinks(from, &kept);
        for pin in moved {
            self.connect_sink(to, pin);
        }
    }

    // ---- access -----------------------------------------------------------

    /// The sink span of `net` in the pin pool.
    fn net_span(&self, net: NetId) -> (&[u32], &[u16]) {
        let i = net.index();
        let off = self.net_off[i] as usize;
        let len = self.net_len[i] as usize;
        if len == 0 {
            (&[], &[])
        } else {
            (
                &self.pin_keys[off..off + len],
                &self.pin_aux[off..off + len],
            )
        }
    }

    fn inst_flag(&self, i: usize) -> u8 {
        self.inst_flags.get(i).copied().unwrap_or(0)
    }

    fn net_flag(&self, i: usize) -> u8 {
        self.net_flags.get(i).copied().unwrap_or(0)
    }

    /// The instance behind `id`, as a by-value view.
    pub fn inst(&self, id: InstId) -> Inst {
        let i = id.index();
        let flags = self.inst_flag(i);
        let group = self
            .inst_groups
            .get(i)
            .copied()
            .filter(|&g| g != GROUP_NONE)
            .map(GroupId);
        Inst {
            name: self.inst_names[i],
            master: decode_master(self.inst_masters[i]),
            pos: self.inst_pos[i],
            tier: if flags & FLAG_TOP != 0 {
                Tier::Top
            } else {
                Tier::Bottom
            },
            fixed: flags & FLAG_FIXED != 0,
            group,
        }
    }

    fn write_inst(&mut self, id: InstId, v: Inst) {
        let i = id.index();
        self.inst_names[i] = v.name;
        self.inst_masters[i] = encode_master(v.master);
        self.inst_pos[i] = v.pos;
        let mut flags = 0u8;
        if v.tier == Tier::Top {
            flags |= FLAG_TOP;
        }
        if v.fixed {
            flags |= FLAG_FIXED;
        }
        if flags != 0 || !self.inst_flags.is_empty() {
            if self.inst_flags.is_empty() {
                self.inst_flags = vec![0; self.inst_names.len()];
            }
            self.inst_flags[i] = flags;
        }
        let group = v.group.map_or(GROUP_NONE, |g| g.0);
        if group != GROUP_NONE || !self.inst_groups.is_empty() {
            if self.inst_groups.is_empty() {
                self.inst_groups = vec![GROUP_NONE; self.inst_names.len()];
            }
            self.inst_groups[i] = group;
        }
    }

    /// Position of the instance behind `id` (its `pos`, read from the
    /// position column alone).
    #[inline]
    pub fn pos(&self, id: InstId) -> Point {
        self.inst_pos[id.index()]
    }

    /// Moves the instance behind `id` to `pos`, writing the position
    /// column alone (an [`InstMut`] guard rewrites every column).
    #[inline]
    pub fn set_pos(&mut self, id: InstId, pos: Point) {
        self.inst_pos[id.index()] = pos;
    }

    /// Write-back guard for the instance behind `id`.
    pub fn inst_mut(&mut self, id: InstId) -> InstMut<'_> {
        let view = self.inst(id);
        InstMut { nl: self, id, view }
    }

    /// The net behind `id`, as a by-value view.
    pub fn net(&self, id: NetId) -> Net<'_> {
        let i = id.index();
        let key = self.net_driver_key[i];
        let flags = self.net_flag(i);
        Net {
            nl: self,
            id,
            name: self.net_names[i],
            driver: (key != PIN_NONE).then(|| decode_pin(key, self.net_driver_aux[i])),
            domain: if flags & FLAG_IO != 0 {
                ClockDomain::Io
            } else {
                ClockDomain::Cpu
            },
            is_clock: flags & FLAG_CLOCK != 0,
        }
    }

    fn write_net(&mut self, id: NetId, v: NetData) {
        let i = id.index();
        self.net_names[i] = v.name;
        match v.driver {
            Some(pin) => {
                let (key, aux) = encode_pin(pin);
                self.net_driver_key[i] = key;
                self.net_driver_aux[i] = aux;
            }
            None => {
                self.net_driver_key[i] = PIN_NONE;
                self.net_driver_aux[i] = 0;
            }
        }
        let mut flags = 0u8;
        if v.domain == ClockDomain::Io {
            flags |= FLAG_IO;
        }
        if v.is_clock {
            flags |= FLAG_CLOCK;
        }
        if flags != 0 || !self.net_flags.is_empty() {
            if self.net_flags.is_empty() {
                self.net_flags = vec![0; self.net_names.len()];
            }
            self.net_flags[i] = flags;
        }
    }

    /// Write-back guard for the core fields of the net behind `id`.
    pub fn net_mut(&mut self, id: NetId) -> NetMut<'_> {
        let n = self.net(id);
        let view = NetData {
            name: n.name,
            driver: n.driver,
            domain: n.domain,
            is_clock: n.is_clock,
        };
        NetMut { nl: self, id, view }
    }

    /// The port behind `id`.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Mutable access to the port behind `id`.
    pub fn port_mut(&mut self, id: PortId) -> &mut Port {
        &mut self.ports[id.index()]
    }

    /// Name of group `id`.
    pub fn group_name(&self, id: GroupId) -> &str {
        self.interner
            .as_plain(self.groups[id.index()])
            .expect("group names are plain symbols")
    }

    /// Number of instances.
    pub fn num_insts(&self) -> usize {
        self.inst_names.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of boundary ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Number of registered groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Iterates over `(id, inst)` pairs.
    pub fn insts(&self) -> impl Iterator<Item = (InstId, Inst)> + '_ {
        (0..self.inst_names.len()).map(|i| (InstId::from(i), self.inst(InstId::from(i))))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        (0..self.net_names.len()).map(|i| (NetId::from(i), self.net(NetId::from(i))))
    }

    /// Iterates over `(id, port)` pairs.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, x)| (PortId::from(i), x))
    }

    /// All instance ids.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.inst_names.len()).map(InstId::from)
    }

    /// All net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_names.len()).map(NetId::from)
    }

    // ---- geometry ---------------------------------------------------------

    /// Physical location of a pin: the owning instance's centre or the
    /// port's boundary location.
    pub fn pin_pos(&self, pin: PinRef) -> Point {
        match pin {
            PinRef::InstOut(i) | PinRef::InstIn(i, _) => self.inst_pos[i.index()],
            PinRef::Port(p) => self.port(p).pos,
        }
    }

    /// Die (tier) of a pin.
    pub fn pin_tier(&self, pin: PinRef) -> Tier {
        match pin {
            PinRef::InstOut(i) | PinRef::InstIn(i, _) => {
                if self.inst_flag(i.index()) & FLAG_TOP != 0 {
                    Tier::Top
                } else {
                    Tier::Bottom
                }
            }
            PinRef::Port(p) => self.port(p).tier,
        }
    }

    /// `true` when the net spans both tiers (a 3D net needing a TSV or F2F
    /// via once the block is folded).
    pub fn net_is_3d(&self, id: NetId) -> bool {
        let mut tiers = self.net(id).pins().map(|p| self.pin_tier(p));
        match tiers.next() {
            None => false,
            Some(first) => tiers.any(|t| t != first),
        }
    }

    /// Builds the instance → nets incidence map in CSR form (recomputed
    /// on demand because the netlist is freely mutable). Each net appears
    /// at most once per instance, in the same order the old
    /// `Vec<Vec<NetId>>` map listed them.
    pub fn inst_net_incidence(&self) -> Adjacency {
        let n = self.inst_names.len();
        // stamp[i] = last net counted for inst i (two passes, two stamps)
        let mut stamp = vec![u32::MAX; n];
        let mut counts = vec![0u32; n];
        for (nid, net) in self.nets() {
            for pin in net.pins() {
                if let Some(i) = pin.inst() {
                    if stamp[i.index()] != nid.0 {
                        stamp[i.index()] = nid.0;
                        counts[i.index()] += 1;
                    }
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut data = vec![NetId(0); total as usize];
        stamp.fill(u32::MAX);
        for (nid, net) in self.nets() {
            for pin in net.pins() {
                if let Some(i) = pin.inst() {
                    if stamp[i.index()] != nid.0 {
                        stamp[i.index()] = nid.0;
                        data[cursor[i.index()] as usize] = nid;
                        cursor[i.index()] += 1;
                    }
                }
            }
        }
        Adjacency { offsets, data }
    }

    /// Total movable (non-fixed, non-macro) cell area in µm².
    pub fn movable_cell_area(&self, tech: &Technology) -> f64 {
        (0..self.inst_names.len())
            .filter(|&i| {
                self.inst_flag(i) & FLAG_FIXED == 0 && self.inst_masters[i] & MASTER_MACRO_BIT == 0
            })
            .map(|i| tech.cells.master(MasterId(self.inst_masters[i])).area_um2)
            .sum()
    }

    /// Heap bytes resident in this netlist's arrays and symbol table
    /// (exact capacities; the scaling bench's bytes/cell numerator).
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let vecs = (self.inst_names.capacity() * size_of::<Symbol>()
            + self.inst_masters.capacity() * size_of::<u32>()
            + self.inst_pos.capacity() * size_of::<Point>()
            + self.inst_flags.capacity()
            + self.inst_groups.capacity() * size_of::<u32>()
            + self.net_names.capacity() * size_of::<Symbol>()
            + self.net_driver_key.capacity() * size_of::<u32>()
            + self.net_driver_aux.capacity() * size_of::<u16>()
            + self.net_off.capacity() * size_of::<u32>()
            + self.net_len.capacity() * size_of::<u32>()
            + self.net_caps.capacity() * size_of::<u32>()
            + self.net_flags.capacity()
            + self.pin_keys.capacity() * size_of::<u32>()
            + self.pin_aux.capacity() * size_of::<u16>()
            + self.ports.capacity() * size_of::<Port>()
            + self.groups.capacity() * size_of::<Symbol>()) as u64;
        self.name.capacity() as u64 + self.interner.heap_bytes() + vecs
    }
}

/// Streaming construction helper: a netlist with exact-capacity columns
/// reserved from an up-front entity census.
///
/// Generators that know their counts (every `foldic-t2` block does)
/// build through this so construction never reallocates: peak memory is
/// exactly the finished block, and a design streams block-by-block with
/// peak O(current block), not O(design). [`finish`](Self::finish)
/// debug-asserts the census was honest.
pub struct NetlistBuilder {
    nl: Netlist,
    insts: usize,
    nets: usize,
    pins: usize,
}

impl NetlistBuilder {
    /// Starts a netlist sized for exactly `insts`/`nets`/`pins` entities.
    pub fn new(name: impl Into<String>, insts: usize, nets: usize, pins: usize) -> Self {
        Self {
            nl: Netlist::with_capacity(name, insts, nets, pins),
            insts,
            nets,
            pins,
        }
    }

    /// The netlist under construction, exposing the full mutation API.
    pub fn finish(self) -> Netlist {
        debug_assert!(
            self.nl.num_insts() <= self.insts
                && self.nl.num_nets() <= self.nets
                && self.nl.pin_keys.len() <= self.pins,
            "census underestimated: {}/{} insts, {}/{} nets, {}/{} pins",
            self.nl.num_insts(),
            self.insts,
            self.nl.num_nets(),
            self.nets,
            self.nl.pin_keys.len(),
            self.pins,
        );
        self.nl
    }
}

impl Deref for NetlistBuilder {
    type Target = Netlist;
    fn deref(&self) -> &Netlist {
        &self.nl
    }
}

impl DerefMut for NetlistBuilder {
    fn deref_mut(&mut self) -> &mut Netlist {
        &mut self.nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_tech::{CellKind, Drive, VthClass};

    fn lib() -> foldic_tech::CellLibrary {
        foldic_tech::CellLibrary::cmos28()
    }

    fn inv(nl: &mut Netlist, name: &str) -> InstId {
        let id = lib().id_of(CellKind::Inv, Drive::X1, VthClass::Rvt);
        nl.add_inst(name, InstMaster::Cell(id))
    }

    #[test]
    fn build_and_query() {
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        let b = inv(&mut nl, "b");
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(a));
        nl.connect_sink(n, PinRef::input(b, 0));
        assert_eq!(nl.num_insts(), 2);
        assert_eq!(nl.net(n).fanout(), 1);
        assert_eq!(nl.net(n).pins().count(), 2);
        assert_eq!(nl.name_of(nl.inst(a).name).to_string(), "a");
        assert_eq!(nl.name_of(nl.net(n).name).to_string(), "n");
    }

    #[test]
    fn derived_names_resolve_like_format() {
        let mut nl = Netlist::new("t");
        let cells = nl.name_template("spc0_u", "");
        let nets = nl.name_template("n_spc0_", "");
        let id = lib().id_of(CellKind::Inv, Drive::X1, VthClass::Rvt);
        let a = nl.add_inst(cells.at(17), InstMaster::Cell(id));
        let n = nl.add_net(nets.at(3));
        assert_eq!(nl.name_of(nl.inst(a).name).to_string(), "spc0_u17");
        assert_eq!(nl.name_of(nl.net(n).name).to_string(), "n_spc0_3");
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driver_panics() {
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        let b = inv(&mut nl, "b");
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(a));
        nl.connect_driver(n, PinRef::output(b));
    }

    #[test]
    fn move_sinks_partitions_fanout() {
        let mut nl = Netlist::new("t");
        let d = inv(&mut nl, "d");
        let sinks: Vec<_> = (0..4).map(|i| inv(&mut nl, &format!("s{i}"))).collect();
        let n1 = nl.add_net("n1");
        nl.connect_driver(n1, PinRef::output(d));
        for &s in &sinks {
            nl.connect_sink(n1, PinRef::input(s, 0));
        }
        let n2 = nl.add_net("n2");
        let far: std::collections::HashSet<_> = sinks[2..].iter().copied().collect();
        nl.move_sinks(n1, n2, |p| p.inst().is_some_and(|i| far.contains(&i)));
        assert_eq!(nl.net(n1).fanout(), 2);
        assert_eq!(nl.net(n2).fanout(), 2);
        // relative order preserved on both halves
        assert_eq!(nl.net(n1).sink(0), PinRef::input(sinks[0], 0));
        assert_eq!(nl.net(n2).sink(0), PinRef::input(sinks[2], 0));
    }

    #[test]
    fn interleaved_appends_relocate_but_preserve_order() {
        // the clock-trunk pattern: two nets take turns appending, forcing
        // the non-tail net to relocate; per-net order must never change
        let mut nl = Netlist::new("t");
        let d = inv(&mut nl, "d");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.connect_driver(a, PinRef::output(d));
        nl.connect_driver(b, PinRef::output(d));
        let mut cells = Vec::new();
        for i in 0..50 {
            let c = inv(&mut nl, &format!("c{i}"));
            cells.push(c);
            let net = if i % 2 == 0 { a } else { b };
            nl.connect_sink(net, PinRef::input(c, 0));
        }
        let on_a: Vec<_> = nl.net(a).sinks().collect();
        let on_b: Vec<_> = nl.net(b).sinks().collect();
        assert_eq!(on_a.len(), 25);
        assert_eq!(on_b.len(), 25);
        for (k, pin) in on_a.iter().enumerate() {
            assert_eq!(*pin, PinRef::input(cells[2 * k], 0));
        }
        for (k, pin) in on_b.iter().enumerate() {
            assert_eq!(*pin, PinRef::input(cells[2 * k + 1], 0));
        }
    }

    #[test]
    fn clear_and_set_sinks_rebuild_fanout() {
        let mut nl = Netlist::new("t");
        let d = inv(&mut nl, "d");
        let s: Vec<_> = (0..3).map(|i| inv(&mut nl, &format!("s{i}"))).collect();
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(d));
        for &x in &s {
            nl.connect_sink(n, PinRef::input(x, 0));
        }
        nl.clear_sinks(n);
        assert_eq!(nl.net(n).fanout(), 0);
        nl.set_sinks(n, &[PinRef::input(s[2], 0), PinRef::input(s[0], 0)]);
        assert_eq!(nl.net(n).fanout(), 2);
        assert_eq!(nl.net(n).sink(0), PinRef::input(s[2], 0));
        assert_eq!(nl.net(n).sink(1), PinRef::input(s[0], 0));
    }

    #[test]
    fn tier_spanning_detection() {
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        let b = inv(&mut nl, "b");
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(a));
        nl.connect_sink(n, PinRef::input(b, 0));
        assert!(!nl.net_is_3d(n));
        nl.inst_mut(b).tier = Tier::Top;
        assert!(nl.net_is_3d(n));
    }

    #[test]
    fn lazy_columns_stay_empty_until_first_nondefault_write() {
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        let n = nl.add_net("n");
        assert!(nl.inst_flags.is_empty() && nl.inst_groups.is_empty());
        assert!(nl.net_flags.is_empty() && nl.net_caps.is_empty());
        // default writes leave the columns lazy
        nl.inst_mut(a).pos = Point::new(1.0, 2.0);
        nl.net_mut(n).domain = ClockDomain::Cpu;
        assert!(nl.inst_flags.is_empty() && nl.net_flags.is_empty());
        // a non-default write materializes exactly that column
        nl.inst_mut(a).fixed = true;
        assert_eq!(nl.inst_flags.len(), nl.num_insts());
        assert!(nl.inst(a).fixed);
        nl.net_mut(n).is_clock = true;
        assert!(nl.net(n).is_clock);
        // later entities keep their defaults
        let b = inv(&mut nl, "b");
        assert!(!nl.inst(b).fixed);
        assert_eq!(nl.inst(b).tier, Tier::Bottom);
    }

    #[test]
    fn group_assignment_roundtrips() {
        let mut nl = Netlist::new("t");
        let g = nl.add_group("alu");
        let a = inv(&mut nl, "a");
        assert_eq!(nl.inst(a).group, None);
        nl.inst_mut(a).group = Some(g);
        assert_eq!(nl.inst(a).group, Some(g));
        assert_eq!(nl.group_name(g), "alu");
    }

    #[test]
    fn incidence_map_dedups_per_net() {
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        let b = inv(&mut nl, "b");
        let n = nl.add_net("n");
        nl.connect_driver(n, PinRef::output(a));
        // b appears twice on the same net (two input pins)
        nl.connect_sink(n, PinRef::input(b, 0));
        nl.connect_sink(n, PinRef::input(b, 1));
        let inc = nl.inst_net_incidence();
        assert_eq!(inc.row(b), &[n]);
        assert_eq!(inc.row(a), &[n]);
        assert_eq!(inc.len(), 2);
    }

    #[test]
    fn inst_geometry_from_tech() {
        let tech = foldic_tech::Technology::cmos28();
        let mut nl = Netlist::new("t");
        let a = inv(&mut nl, "a");
        nl.inst_mut(a).pos = Point::new(10.0, 10.0);
        let r = nl.inst(a).rect(&tech);
        assert!((r.area() - nl.inst(a).area_um2(&tech)).abs() < 1e-9);
        assert_eq!(r.center(), Point::new(10.0, 10.0));
    }

    #[test]
    fn clock_domain_periods() {
        let tech = foldic_tech::Technology::cmos28();
        assert_eq!(ClockDomain::Cpu.period_ps(&tech), 2000.0);
        assert_eq!(ClockDomain::Io.period_ps(&tech), 4000.0);
    }

    #[test]
    fn heap_bytes_counts_the_flat_columns() {
        let mut nl = Netlist::with_capacity("t", 100, 100, 300);
        let cells = nl.name_template("u", "");
        let nets = nl.name_template("n", "");
        let id = lib().id_of(CellKind::Inv, Drive::X1, VthClass::Rvt);
        for i in 0..100 {
            nl.add_inst(cells.at(i), InstMaster::Cell(id));
        }
        for i in 0..100 {
            let n = nl.add_net(nets.at(i));
            nl.connect_driver(n, PinRef::output(InstId(i as u32)));
            for k in 0..3u32 {
                let s = (i as u32 + k + 1) % 100;
                nl.connect_sink(n, PinRef::input(InstId(s), 0));
            }
        }
        let bytes = nl.heap_bytes();
        // 100 cells at ~60 B/cell with exact capacities; far under the
        // ~240 B/cell of the struct-per-entity layout
        assert!(bytes > 1_000, "{bytes}");
        assert!(bytes < 100 * 120, "{bytes}");
    }
}
