(** Host-speed pairing and the order statistics the benchmark reports.

    A timed step is bracketed by two runs of {!Kernel.run}.  Its paired
    value is its raw wall time rescaled to the kernel's nominal speed:
    [raw *. nominal /. ((k_before +. k_after) /. 2.)].  If the host runs
    everything 30% slower for a while, the step and both kernels stretch
    together and the paired value stays put. *)

val paired : nominal:float -> raw:float -> k_before:float -> k_after:float -> float
(** [raw *. nominal /. ((k_before +. k_after) /. 2.)]. *)

val median : float list -> float
(** Median (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float
(** First and third quartile by the "exclusive" method (the default of
    Python's [statistics.quantiles(values, n=4)]).  Needs at least two
    values. *)

val spread : float list -> float
(** Interquartile distance as a share of the median; 0 for fewer than
    two values. *)

val geomean : float list -> float
(** Geometric mean of positive values. *)
