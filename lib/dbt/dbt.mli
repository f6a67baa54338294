(** The dynamic binary modifier engine (the DynamoRIO analog).

    Drives a VM the way a dynamic binary translator drives a process:
    basic blocks are discovered at their first execution, handed to the
    instrumentation client, and placed in a code cache; direct branches
    between cached blocks are linked for free, while indirect transfers
    pay a target lookup on every execution.

    The engine implements the Janitizer-specific machinery of sections
    3.4.1–3.4.2: per-module rewrite-rule hash tables populated at module
    load time (with load-base adjustment for PIC modules), block
    classification into statically-seen versus dynamically-discovered
    code, and dispatch of each block to the client with its applicable
    rules. *)

open Jt_isa

type block = {
  bb_addr : int;  (** run-time address *)
  insns : (int * Insn.t * int) array;  (** (address, instruction, length) *)
}

(** What a piece of instrumentation does to shadow state, as far as the
    trace-spine elision pass can tell.  Tools that want their checks
    considered for trace-level elision tag them [M_check] with the
    access's {!Jt_analysis.Avail.Key.t}.  [M_unpoison] marks a write
    that only makes memory addressable: no barrier for checks, but it
    does change shadow state, so a trace containing one gets no
    induction guard.  Everything else stays [M_opaque] (an opaque meta
    with an action is treated as a conservative barrier) or
    [M_shadow_write] (a poisoning write — always a barrier). *)
type meta_kind =
  | M_opaque
  | M_check of Jt_analysis.Avail.Key.t
  | M_unpoison
  | M_shadow_write

(** One piece of inserted instrumentation, executed immediately before
    its anchor instruction.  [m_cost] is the full cycle price including
    whatever save/restore traffic the tool decided it needs. *)
type meta = {
  m_cost : int;
  m_action : (Jt_vm.Vm.t -> unit) option;
  m_kind : meta_kind;
}

type plan = meta list array
(** Per-instruction instrumentation, indexed like [block.insns].  Use
    {!no_plan} for "translate as-is". *)

val no_plan : block -> plan

(** How the block reached the client (section 3.4.1): via rewrite rules
    from the static analyzer, or discovered dynamically with no static
    information (dynamically generated / dlopen'd without rules / missed
    by static control-flow recovery). *)
type provenance = Static_rules | Dynamic_only

type client = {
  cl_name : string;
  cl_on_block :
    Jt_vm.Vm.t -> block -> provenance -> rules_at:(int -> Jt_rules.Rules.t list) -> plan;
}

(** Engine cost profile, so baseline translators (Lockdown's lightweight
    libdetox) can share the machinery with different constants. *)
type profile = {
  p_name : string;
  p_translate_block : int;
  p_translate_insn : int;
  p_indirect : int;
      (** per executed indirect transfer (incl. returns) that misses the
          inline caches and falls back to the dispatcher lookup *)
  p_ibl_hit : int;
      (** per indirect transfer resolved by a per-site inline cache; equal
          to [p_indirect] for engines without an IBL fast path *)
  p_per_block : int;  (** per block execution *)
}

val dynamorio : profile
val lightweight : profile

type stats = {
  mutable st_blocks_static : int;  (** unique blocks found in rule tables *)
  mutable st_blocks_dynamic : int;  (** unique blocks that missed *)
  mutable st_block_execs : int;
  mutable st_indirects : int;
  mutable st_rules_applied : int;
  mutable st_chain_hits : int;
      (** block transfers that followed a direct chain link, skipping the
          dispatcher entirely *)
  mutable st_dispatch_entries : int;
      (** dispatcher entries: code-cache hash probes (and translations) *)
  mutable st_ibl_hits : int;
      (** indirect transfers resolved by a per-site inline cache *)
  mutable st_ibl_misses : int;
      (** indirect transfers that probed an inline cache and missed *)
  mutable st_traces_built : int;  (** superblock traces stitched *)
  mutable st_trace_execs : int;  (** trace executions entered at a head *)
  mutable st_trace_interior : int;
      (** block transitions taken inside a trace without any dispatch *)
  mutable st_decode_faults : int;
      (** entries that resolved to an empty (undecodable) block, which
          faults without executing *)
  mutable st_claim_checked_drops : int;
      (** trace-overlay drops at instructions whose stored static claim
          partition says the check was kept ([Jt_ir.Ir.Claims.checked]) —
          redundancy visible only at trace granularity; 0 without
          [ir_for] *)
}

type t

val create :
  vm:Jt_vm.Vm.t ->
  ?profile:profile ->
  ?client:client ->
  ?chain:bool ->
  ?ibl:bool ->
  ?trace:bool ->
  ?trace_elide:bool ->
  ?rules_for:(string -> Jt_rules.Rules.file option) ->
  ?ir_for:(string -> Jt_ir.Ir.t option) ->
  unit ->
  t
(** Create an engine bound to [vm].  Must be called before [Vm.boot] so
    that the engine observes startup module loads (it subscribes to the
    loader and to cache-flush events).  [rules_for] supplies each module's
    statically generated rule file, if one exists.

    [ir_for] supplies each module's stored IR ([Jt_ir]), if one exists;
    the engine reads the tool-contributed claim partitions from its aux
    tables at load time (addresses adjusted by the load base for PIC,
    like the rule tables) and uses them for overlay accounting
    ([st_claim_checked_drops]).  Execution, cycles, output and
    violations are identical with or without it.

    [chain] (default true) enables direct block chaining: blocks ending
    in a direct [Jmp]/[Jcc]/[Call] are linked to their translated
    successors, so chains of hot blocks execute without re-entering the
    dispatcher or re-probing the code-cache hash table.  Links are
    severed on invalidation.  Chaining changes only host-level dispatch
    work ({!stats}); simulated cycles, outputs
    and violations are bit-identical with it off.

    [ibl] (default true) enables per-site indirect-branch inline caches:
    each block ending in [Jmp_ind]/[Call_ind]/[Ret] keeps a last-target
    slot plus a small associative table of recent targets, probed before
    the dispatcher.  A hit charges the profile's cheaper [p_ibl_hit]; only
    a miss pays [p_indirect] and re-enters the dispatcher.  Program
    output, exit status, instruction counts and violations are identical
    with it off; simulated cycles drop (that is the modeled win).

    [trace] (default true) enables NET-style hot-trace formation: block
    heads that cross a hotness threshold record the next-executing tail of
    cached blocks into a superblock, which then runs head-to-tail with a
    single per-block dispatch charge.  Traces live on top of the ordinary
    code cache: any range invalidation (dlopen unload, [flush_range],
    self-modifying code) that kills a constituent block kills the trace,
    which is then re-formed on demand.  Like [ibl], observable program
    behavior is bit-identical with it off.

    [trace_elide] (default true) runs the JASan availability
    must-analysis along each newly recorded trace spine and builds an
    overlay of thinned instrumentation plans: checks dominated within
    the trace by an earlier check of the same address key are elided,
    and a steady-state plan variant additionally elides loop-invariant
    checks when the trace re-enters its own head immediately after a
    completed trip, and hoists affine checks of a counted loop into one
    pair of endpoint checks at streak onset.  The constituents'
    own plans are never modified, so side exits, teardown and ordinary
    block execution structurally restore every check.  Exit status,
    output, instruction counts and the deduplicated violation set are
    identical with it off; only simulated cycles (check work) drop. *)

val run : ?fuel:int -> t -> unit
(** Execute the booted program to completion under the engine.  On the
    way out, asserts the entry-accounting identity
    [st_dispatch_entries + st_chain_hits + st_ibl_hits + st_trace_interior
     = st_block_execs + st_decode_faults]
    via {!Jt_trace.Trace.entry_accounting} (raising
    [Jt_trace.Trace.Invariant_failure] on a mismatch), tracing enabled
    or not. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero every {!stats} counter without touching the code cache, chain
    links, inline caches or traces, so an engine reused across workloads
    reports per-run numbers.  The invariant
    [st_dispatch_entries + st_chain_hits + st_ibl_hits + st_trace_interior
     = st_block_execs + st_decode_faults] holds from any reset point. *)

val traces_live : t -> int
(** Number of built traces whose constituent blocks are all still valid
    (i.e. would still execute if their head is reached).  O(1): the count
    is maintained incrementally by trace build and teardown, which is
    exact because invalidating any constituent eagerly tears its traces
    down. *)

val traces_live_scan : t -> int
(** The full-recount oracle for {!traces_live} — walks every trace and
    validates every constituent.  O(traces · length); for debug
    assertions and tests only.  {!run} asserts the two agree on exit. *)

val trace_elisions : t -> (int * (int * string * int) list) list
(** Elision decisions of the live traces, sorted by head address:
    [(head, [(insn, reason, witness)])] with reasons ["trace-dom"],
    ["trace-streak"] and ["trace-ind"].  Diagnostics (the CLI's
    [analyze --facts] dump). *)

val dynamic_block_fraction : t -> float
(** Fraction of executed unique blocks that were only discovered
    dynamically (Figure 14). *)
