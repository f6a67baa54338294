(** Items, steps, kernel brackets and spans.

    An {e item} is a unit of measured work bracketed by two runs of the
    reference kernel (the one after it is the one before the next).  It
    holds one or more {e steps}, each timed around a public call into the
    system under test.  Every step is paired with its item's kernels
    ({!Pair.paired}).  With tracing on, each item and step is also
    recorded as a span (name, start, end, parent) kept in memory until
    {!write_spans}. *)

type sample = {
  raw : float;  (** wall seconds *)
  k_before : float;
  k_after : float;
  paired : float;  (** at the kernel's nominal speed *)
}

type t

val create : unit -> t
(** Runs one kernel, so the first item has a kernel before it. *)

type step = { step : 'a. string -> (unit -> 'a) -> 'a }

val item : t -> string -> (step -> 'a) -> 'a
(** [item tl name f] runs [f] with a step timer, then a kernel.  Items
    with the same name in later rounds are further samples of the same
    steps.  Every step starts from an empty minor heap: a [Gc.minor]
    outside the step's time, recorded as a [bench.gc_minor] span. *)

val new_round : t -> unit
(** Close the current round. *)

val set_tracing : t -> bool -> unit
val rounds : t -> int

val samples : t -> (string * sample list) list
(** Per ["item/step"] key, the samples of every round, in round order;
    keys in first-seen order. *)

val estimate : ?raw:bool -> t -> string -> float
(** Median paired value of a key over its rounds (0 if absent); with
    [~raw:true], the median raw value. *)

val round_totals : ?raw:bool -> t -> traced:bool -> float list
(** Sum of paired (or raw) step values of each closed round with the
    given tracing state. *)

val kernels : t -> float list
(** Every kernel time measured so far. *)

val spans_accounted : t -> min_wall:float -> float
(** Over traced items that took at least [min_wall] seconds: the
    smallest share of an item's wall time (kernel excluded) covered by
    its step spans; 1 if there are none. *)

val write_spans : t -> string -> unit
(** Write every recorded span as one JSON object per line. *)
