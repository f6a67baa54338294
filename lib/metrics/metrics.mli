(** Result aggregation and table rendering for the benchmark harness. *)

val geomean : float list -> float
(** Geometric mean; 0 for an empty list.  Non-positive values would
    poison the mean through [log], so they are skipped (with a warning on
    stderr); 0 if nothing positive remains. *)

(** Hot-path instrumentation counters, incremented by the loader's
    address-range index, the cache-invalidation paths, JASan's checks
    and elisions and the IR store.  They measure *host-level* work
    (probes, visits), not simulated cycles, so resetting or reading them
    never perturbs an experiment.  Dispatch events (chain and IBL hits,
    dispatcher entries, trace builds and executions) are counted once,
    per engine, in [Jt_dbt.Dbt.stats].

    The counters are {e domain-local} ([Domain.DLS]): every domain counts
    into its own instance, so concurrent driver runs on a [Jt_pool] never
    corrupt each other.  A pool job that wants its numbers must
    {!Counters.snapshot} on its own domain (inside the job) and return
    the snapshot; the harness aggregates with {!Counters.merge}. *)
module Counters : sig
  type t = {
    mutable c_module_lookups : int;  (** [Loader.module_at] calls *)
    mutable c_lookup_probes : int;
        (** binary-search steps across all module lookups *)
    mutable c_flush_visits : int;
        (** cache entries examined by range invalidations *)
    mutable c_flush_drops : int;
        (** cache entries actually invalidated *)
    mutable c_san_checks : int;
        (** JASan shadow-memory checks actually executed at run time *)
    mutable c_san_elide_frame : int;
        (** accesses statically elided by the VSA frame-bounds proof *)
    mutable c_san_elide_dom : int;
        (** accesses statically elided by the dominating-check pass *)
    mutable c_san_trace_elide_dom : int;
        (** dynamic check instances elided by the trace-spine
            dominating-check pass *)
    mutable c_san_trace_elide_streak : int;
        (** dynamic check instances elided by the steady-state (streak)
            trace plans: availability carried across the trace's own
            back-edge *)
    mutable c_san_trace_elide_ind : int;
        (** dynamic check instances elided by the trace induction-range
            guard: affine accesses covered by the endpoint check run
            once at streak onset *)
    mutable c_ir_store_hits : int;
        (** IR-store lookups served from memory or disk *)
    mutable c_ir_store_misses : int;
        (** IR-store lookups that had to run the static analyzer *)
    mutable c_ir_store_evicts : int;
        (** in-memory LRU entries evicted by capacity pressure *)
    mutable c_ir_store_corrupt : int;
        (** on-disk entries rejected (truncated / bad magic / wrong
            schema version / stale digest) and transparently re-analyzed *)
  }

  val current : unit -> t
  (** The calling domain's counters (created zeroed on first use). *)

  val reset : unit -> unit
  (** Zero the calling domain's counters. *)

  val snapshot : unit -> (string * int) list
  (** The calling domain's current values as name/value pairs, in a
      stable order.  The key ["san_trace_elide_canary"] is always 0: the
      trace-level canary-unpoison dedupe it counted was removed, and the
      key is kept for readers that look it up by name. *)

  val snapshot_of : t -> (string * int) list

  val merge : (string * int) list list -> (string * int) list
  (** Sum snapshots pointwise (key order of the first snapshot); the
      aggregation step for per-domain snapshots collected from pool
      jobs.  Empty input yields an all-zero snapshot. *)
end

type cell =
  | Value of float
  | Fail of string  (** tool refused or crashed on this benchmark (✗) *)

type table = {
  t_title : string;
  t_unit : string;  (** e.g. "slowdown vs native", "AIR %" *)
  t_cols : string list;
  t_rows : (string * cell list) list;  (** benchmark name, one cell per column *)
}

val value_exn : cell -> float option

val geomean_row : table -> float option list
(** Per-column geomean over the benchmarks where that column has a value. *)

val geomean_x_row : table -> float option list
(** Per-column geomean restricted to benchmarks where *every* column has
    a value (the paper's "geomean-x"). *)

val print : table -> unit
(** Render to stdout with geomean (and geomean-x when columns differ in
    coverage) appended. *)

val print_kv : string -> (string * string) list -> unit
(** Simple key/value block (for the Figure 10 style tables). *)
