(** Generic forward dataflow over one function's CFG.

    A reusable worklist solver in the style of Macaw's machine-code
    analyses: the client provides a join-semilattice and a per-instruction
    transfer function; the solver computes the least fixpoint of the usual
    in/out equations over {!Jt_cfg.Cfg.fn} blocks, with a widening hook so
    infinite-height domains (intervals) terminate.

    Soundness contract: [join] must be an upper bound of its arguments,
    [transfer] monotone, and [widen prev next] an upper bound of both that
    guarantees stabilization of every ascending chain.  Must-analyses
    (e.g. available checks) are expressed by flipping the order — use
    intersection as [join] and a designated "everything" element as the
    implicit optimistic initial value: unreached predecessors simply
    contribute nothing. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen previous proposed]: applied in place of [join] for a block
      visited more than [widen_after] times.  Finite lattices can use
      [join]. *)
end

module Make (L : LATTICE) : sig
  type t

  val solve :
    ?widen_after:int ->
    entry:L.t ->
    transfer:(Jt_disasm.Disasm.insn_info -> L.t -> L.t) ->
    Jt_cfg.Cfg.fn ->
    t
  (** Run to fixpoint.  [entry] is the state at the function entry;
      [widen_after] (default 2) is the per-block visit count beyond which
      [L.widen] replaces [L.join]. *)

  val block_in : t -> int -> L.t option
  (** Fixpoint state at a block's entry ([None] for blocks the solver
      never reached — unknown addresses). *)

  val block_out : t -> int -> L.t option

  val before : t -> int -> L.t option
  (** State just before an instruction, obtained by replaying the
      enclosing block's transfer from its in-state. *)

  val iterations : t -> int
  (** Blocks processed until stabilization (solver diagnostics). *)

  val export : t -> (int * L.t) list
  (** The fixpoint's per-block in-states, sorted by block address.  This
      is the complete solution: out-states and per-instruction states are
      replay-derived. *)

  val restore :
    transfer:(Jt_disasm.Disasm.insn_info -> L.t -> L.t) ->
    ins:(int * L.t) list ->
    Jt_cfg.Cfg.fn ->
    t
  (** Rebuild a solver value from {!export}ed in-states without running
      the fixpoint: one transfer pass per block recomputes the out-states.
      The caller must supply the same transfer the original [solve] used,
      or the replayed states are meaningless.  [iterations] of the result
      is [0].  @raise Failure if [ins] names a block not in the
      function. *)
end
