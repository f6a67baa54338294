(** Structured tracing & profiling for the runtime (DESIGN.md §9–10).

    A domain-local, fixed-capacity ring buffer of typed events emitted
    by the VM, the DBT engine, the loader and the security tools, plus
    span-style phase timers ([Analyze]/[Rewrite]/[Load]/[Run]) with
    simulated-cycle attribution.  All state lives in [Domain.DLS]:
    enabling tracing affects only the calling domain, and concurrent
    driver runs on a [Jt_pool] capture disjoint streams (a pool job
    returns its capture via {!snapshot}; aggregate with {!merge}).

    The emit contract keeps the disabled path at a DLS load plus one
    branch, never constructing the event:

    {[
      if Jt_trace.Trace.is_enabled () then
        Jt_trace.Trace.emit (Jt_trace.Trace.Ibl_hit { site; target })
    ]}

    Tracing only observes: enabling it never charges guest cycles or
    touches guest state, so run results (status, output, icount, cycles,
    violations) are bit-identical with it on or off. *)

(** Provenance of a translated block: found in the static analyzer's
    rewrite rules, or discovered dynamically. *)
type origin = Static | Dynamic

(** Span-style profiling phases of a driver run.  [Rewrite] (block
    translation) happens lazily inside [Run]; its cycle attribution is a
    subset of [Run]'s, carved out so dispatcher-vs-translated-code time
    can be separated. *)
type phase = Analyze | Rewrite | Load | Run

val phase_name : phase -> string
val origin_name : origin -> string

type event =
  | Block_translate of { pc : int; insns : int; origin : origin }
  | Block_exec of { pc : int }
  | Chain_link of { from_pc : int; to_pc : int }
  | Chain_sever of { from_pc : int; to_pc : int }
  | Ibl_hit of { site : int; target : int }
  | Ibl_miss of { site : int; target : int }
  | Trace_build of { head : int; blocks : int }
  | Trace_teardown of { head : int }
  | Trace_elide of {
      head : int;  (** head address of the trace the decision belongs to *)
      insn : int;  (** address of the access whose check the trace elides *)
      reason : string;
          (** ["trace-dom"] (dominated within the trace by an identical
              check), ["trace-streak"] (loop-invariant, justified by the
              trace's own back-edge) or ["trace-ind"] (affine in a
              counted loop's induction register, covered by the endpoint
              checks run at streak onset) *)
      witness : int;
          (** address of the earlier access whose check subsumes this
              one (for ["trace-ind"], the loop-head compare whose bound
              the guard reads); [0] if unknown *)
    }
  | Flush_range of { start : int; len : int }
  | Module_load of { name : string; base : int }
  | Module_unload of { name : string }
  | Dlopen of { name : string; handle : int }
  | Dlclose of { name : string; ok : bool }
  | Plt_resolve of { caller : int; target : int }
  | Shadow_poison of { addr : int; len : int; state : int }
  | Shadow_unpoison of { addr : int; len : int }
  | Check_elide of {
      insn : int;  (** address of the access whose check was elided *)
      fn : int;  (** entry address of the containing function *)
      reason : string;
          (** which static proof removed the check: ["frame"]
              (VSA frame-bounds) or ["dom"] (dominating identical check) *)
      witness : int;
          (** for ["dom"], the address of the dominating checked access
              that subsumes this one; [0] otherwise *)
    }
  | Violation of {
      kind : string;
      addr : int;
      pc : int;
      vmodule : string;  (** module containing the faulting pc, or "?" *)
      origin : origin;  (** provenance of the executing block *)
    }
  | Cfi_table of { name : string; entries : int }
  | Store_hit of { name : string; source : string }
      (** IR-store lookup served without analysis; [source] is ["mem"]
          (in-memory LRU) or ["disk"] *)
  | Store_miss of { name : string }
      (** IR-store lookup that ran the static analyzer *)
  | Store_evict of { name : string }
      (** in-memory LRU entry evicted by capacity pressure *)
  | Store_corrupt of { name : string; why : string }
      (** on-disk entry rejected (truncation, bad magic, wrong schema
          version, stale digest) and re-analyzed *)
  | Phase_begin of { phase : phase }
  | Phase_end of { phase : phase; host_s : float; cycles : int }

val is_enabled : unit -> bool
(** The cheap guard: is tracing enabled on the calling domain?  Check it
    before constructing an event so the disabled path neither allocates
    nor emits. *)

val default_capacity : int

val enable : ?capacity:int -> unit -> unit
(** Allocate the calling domain's ring (capacity in events, default
    {!default_capacity}), clear any previous contents and phase totals,
    and turn tracing on for this domain.  Raises [Invalid_argument] on a
    non-positive capacity. *)

val disable : unit -> unit
(** Turn tracing off on the calling domain; buffered events remain
    readable. *)

val clear : unit -> unit
(** Drop the calling domain's buffered events and zero its per-kind
    counts and phase totals without toggling the enabled flag. *)

val emit : event -> unit
(** Append an event to the calling domain's ring, overwriting the oldest
    once it is full.  No-op while tracing is disabled (callers still
    guard on {!is_enabled} first so the disabled path never constructs
    the event). *)

val emitted : unit -> int
(** Events ever emitted since the last {!enable}/{!clear} (including
    overwritten ones). *)

val dropped : unit -> int
(** Events lost to ring wraparound ([max 0 (emitted - capacity)]). *)

val events : unit -> event list
(** The calling domain's buffered events, oldest first; at most
    [capacity] of them. *)

(** {2 Violation provenance} *)

val set_exec_origin : origin -> unit
(** Record the provenance of the block about to execute.  Maintained by
    the DBT (only while tracing is enabled) so [Vm.report_violation] can
    stamp violations with static-vs-dynamic origin. *)

val exec_origin : unit -> origin

(** {2 Phase spans} *)

val phase_begin : phase -> unit
val phase_end : phase -> unit

val phase_add_cycles : phase -> int -> unit
(** Attribute simulated cycles (from [Cost] constants) to a phase; if a
    span of that phase is open, they are also counted into its
    [Phase_end] event. *)

val in_phase : phase -> (unit -> 'a) -> 'a
(** Run a thunk inside a span; a transparent passthrough when tracing is
    disabled. *)

type phase_summary = {
  ps_phase : phase;
  ps_spans : int;  (** completed spans *)
  ps_host_s : float;  (** accumulated wall-clock seconds *)
  ps_cycles : int;  (** attributed simulated cycles *)
}

val phase_totals : unit -> phase_summary list
(** One summary per phase, in [Analyze; Rewrite; Load; Run] order. *)

(** {2 Snapshots}

    A pool job runs on a worker domain, so its capture is invisible to
    the submitting domain.  The job takes a {!snapshot} before
    returning; the harness combines per-job snapshots with {!merge}. *)

type snapshot = {
  sn_events : event list;  (** buffered events, oldest first *)
  sn_emitted : int;
  sn_dropped : int;
  sn_phases : phase_summary list;
}

val snapshot : unit -> snapshot
(** Capture the calling domain's current events, counts and phase
    totals. *)

val merge : snapshot list -> snapshot
(** Concatenate events in argument order, sum emit/drop counts and phase
    totals pointwise.  Snapshots must come from {!snapshot} (canonical
    phase order). *)

(** {2 JSONL export / import} *)

val event_to_json : event -> string
(** One flat JSON object, no trailing newline. *)

val event_of_json : string -> event option
(** Parse a line produced by {!event_to_json}; [None] on malformed input
    or an unknown event tag. *)

val export : out_channel -> unit
(** Write every buffered event as one JSON line each. *)

val kind_name : event -> string

val kind_counts : unit -> (string * int) list
(** Events emitted since the last {!clear} (or {!enable}), bucketed by
    kind and sorted by kind name; kinds never emitted are omitted.
    Counted at emit time, so the totals include events the ring has
    since overwritten. *)

(** {2 Entry-accounting invariant} *)

exception Invariant_failure of string

val entry_accounting :
  dispatch:int ->
  chain:int ->
  ibl:int ->
  trace_interior:int ->
  decode_faults:int ->
  block_execs:int ->
  unit
(** Assert the dispatch identity
    [dispatch + chain + ibl + trace_interior = block_execs + decode_faults].
    Raises {!Invariant_failure} on a mismatch.  Checked by [Dbt.run]
    after every run, tracing enabled or not. *)
