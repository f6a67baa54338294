(** The fixed reference kernel that host-speed pairing divides by.

    [run] performs the same work on every call, in two parts: an
    L2-resident table walk with data-dependent branches (the mix of an
    interpreter loop) and dependent read-modify-writes across an 8 MiB
    byte array (the heap traffic of the collector and the analyses).  On
    a shared host the measured work slows with both kinds of contention,
    so the kernel has to see both.  It uses only stdlib [Bytes], arrays
    and a [Bigarray] kept outside the OCaml heap, allocates nothing (so no
    heap state or GC work of the measured program can reach it) and links
    nothing from the system under test. *)

val run : unit -> int
(** One kernel pass; returns a checksum that is the same on every call. *)

val nominal_s : float
(** The kernel's nominal duration in seconds.  Fixed here, never
    re-measured: a timing paired with a kernel that took exactly this
    long is reported unchanged. *)

val time : unit -> float
(** Run the kernel twice and return the wall time of the second pass, in
    seconds: the first pass puts the kernel's tables back in cache. *)

val now : unit -> float
(** Monotonic wall clock, in seconds. *)
