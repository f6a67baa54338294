open Jt_isa

type block = { bb_addr : int; insns : (int * Insn.t * int) array }

(* What a piece of instrumentation does to shadow state, as far as the
   trace-spine elision pass is concerned.  [M_check] carries the
   syntactic address key of the access it guards; [M_unpoison] only
   widens what is addressable, so it is no barrier for checks (but it
   does change shadow state); [M_shadow_write] marks a poisoning write
   (a barrier: no earlier check survives it);
   [M_opaque] is anything the pass cannot reason about — an opaque meta
   with an action is treated as a conservative barrier, one without an
   action (pure cost) is transparent.

   Contract for [M_check]: the meta's action must be a pure, read-only
   shadow check of the keyed address range (reporting aside, no state
   changes).  The trace pass relies on this in both directions — it
   drops such actions when a dominating check witnesses them, and the
   induction-range guard *re-executes* them with the key's index
   register temporarily rebound to an endpoint trip value, turning the
   per-iteration check into two endpoint checks at streak onset. *)
type meta_kind =
  | M_opaque
  | M_check of Jt_analysis.Avail.Key.t
  | M_unpoison
  | M_shadow_write

type meta = {
  m_cost : int;
  m_action : (Jt_vm.Vm.t -> unit) option;
  m_kind : meta_kind;
}

type plan = meta list array

let no_plan b = Array.make (Array.length b.insns) []

type provenance = Static_rules | Dynamic_only

type client = {
  cl_name : string;
  cl_on_block :
    Jt_vm.Vm.t -> block -> provenance -> rules_at:(int -> Jt_rules.Rules.t list) -> plan;
}

type profile = {
  p_name : string;
  p_translate_block : int;
  p_translate_insn : int;
  p_indirect : int;
  p_ibl_hit : int;
  p_per_block : int;
}

let dynamorio =
  {
    p_name = "dynamorio";
    p_translate_block = Jt_vm.Cost.dbt_translate_block;
    p_translate_insn = Jt_vm.Cost.dbt_translate_insn;
    p_indirect = Jt_vm.Cost.dbt_indirect_lookup;
    p_ibl_hit = Jt_vm.Cost.dbt_ibl_hit;
    p_per_block = 0;
  }

(* Lockdown's libdetox keeps its own constants: an IBL hit there costs
   the same as its ordinary indirect check, so enabling the IBL would
   change nothing even if the baseline didn't opt out. *)
let lightweight =
  {
    p_name = "lightweight";
    p_translate_block = 30;
    p_translate_insn = 6;
    p_indirect = Jt_vm.Cost.lockdown_indirect;
    p_ibl_hit = Jt_vm.Cost.lockdown_indirect;
    p_per_block = Jt_vm.Cost.lockdown_per_block;
  }

type stats = {
  mutable st_blocks_static : int;
  mutable st_blocks_dynamic : int;
  mutable st_block_execs : int;
  mutable st_indirects : int;
  mutable st_rules_applied : int;
  mutable st_chain_hits : int;
  mutable st_dispatch_entries : int;
  mutable st_ibl_hits : int;
  mutable st_ibl_misses : int;
  mutable st_traces_built : int;
  mutable st_trace_execs : int;
  mutable st_trace_interior : int;
  mutable st_decode_faults : int;
  mutable st_claim_checked_drops : int;
}

(* The trace-level induction guard (dynamic SCEV).  When a trace is the
   body of a counted loop — head pattern [cmp ivar, bound; jcc {>=,>}],
   a single unit-increment definition of [ivar], a bound that is
   spine-invariant — every check whose key is affine in [ivar] over a
   spine-invariant base can be hoisted out of the steady-state plans and
   replaced by one pair of endpoint checks run at streak onset, when the
   remaining trip range [i0, last] is known from the live register file.
   This is the static SCEV range check's runtime twin: the static pass
   refuses register-held bounds (it cannot prove them stable to the
   preheader), but along a streak the bound register is *observed*
   stable — it is never written on the spine and nothing else runs.
   [ig_checks] pairs each hoisted check meta with the number of [ivar]
   increments that precede it on the spine (its index offset). *)
type ind_bound = Ib_imm of int | Ib_reg of Reg.t

type ind_guard = {
  ig_ivar : Reg.t;
  ig_bound : ind_bound;
  ig_incl : bool;  (* exit on [>]: the last executed trip value is bound *)
  ig_checks : (meta * int) list;
}

(* Per-trace elision overlay, computed once at trace-build time by the
   spine availability analysis.  [ov_plans] replaces the constituents'
   own plans on a cold entry of the trace; [ov_plans_streak] is the
   steady-state variant used when the trace re-enters its own head
   immediately after a completed execution (so checks made available by
   the previous trip — loop-invariant ones — are elided too).  The
   constituents' [cb_plan]s are never modified: a side exit, teardown or
   ordinary block execution structurally restores every check.  The
   [ov_*] count arrays record, per constituent position, how many checks
   each plan variant dropped, for the runtime counters. *)
type overlay = {
  ov_plans : plan array;
  ov_plans_streak : plan array;
  ov_ind : ind_guard option;
      (* endpoint guard justifying the streak plans' "trace-ind" drops;
         executed once when a streak begins *)
  ov_dom : int array;  (* base-plan drops: dominated within the trace *)
  ov_s_dom : int array;  (* streak-plan drops with a same-trip witness *)
  ov_s_streak : int array;  (* streak-only drops (previous-trip witness) *)
  ov_s_ind : int array;  (* streak-only drops hoisted to the onset guard *)
  ov_decisions : (int * string * int) list;
      (* (insn addr, reason, witness addr), for tracing and --facts *)
}

(* A code-cache entry.  Blocks ending in a direct transfer record their
   static successor address(es); once a successor is itself translated,
   the dispatcher installs a chain link so the next execution follows the
   pointer instead of re-probing the hash table.  [cb_valid] is the chain
   severing mechanism: invalidation flips it and every link into a dead
   block is dropped lazily the first time it is followed. *)
type cached = {
  cb : block;
  cb_plan : plan;
  cb_indirect_end : bool;
  cb_end : int;  (* exclusive end of the byte span; bb_addr+1 if empty *)
  cb_succ_taken : int;  (* direct Jmp/Jcc/Call target, -1 if none *)
  cb_succ_fall : int;  (* fallthrough address, -1 if none *)
  mutable cb_link_taken : cached option;
  mutable cb_link_fall : cached option;
  mutable cb_valid : bool;
  (* Per-site indirect-branch inline cache: for a block ending in an
     indirect transfer, the last resolved target plus a small
     associative table of recent targets, probed before the dispatcher.
     Entries are severed lazily through [cb_valid], like chain links. *)
  mutable cb_ibl_last : cached option;
  cb_ibl : cached option array;
  mutable cb_ibl_rr : int;  (* round-robin victim when all ways are live *)
  mutable cb_hot : int;  (* dispatcher-level entries, for trace heads *)
  cb_origin : Jt_trace.Trace.origin;  (* static rules vs dynamic discovery *)
  (* Back-pointers to every live trace this block is a constituent of,
     so invalidation tears dependent traces down eagerly (and the live
     count stays O(1) to read). *)
  mutable cb_traces : trace list;
}

(* A NET-style superblock trace: the tail of blocks that actually
   executed after a hot head, stitched so the common path re-enters the
   dispatcher once per trip instead of once per block.  Constituents are
   ordinary code-cache entries, so PR 1's page-bucketed range
   invalidation reaches them without knowing about traces: a trace is
   alive only while every constituent still is: invalidating any
   constituent eagerly drops the trace through the block's [cb_traces]
   back-pointers, and execution still re-checks each constituent before
   entering it (a flush mid-trace side-exits). *)
and trace = {
  tr_head : int;
  tr_blocks : cached array;
  mutable tr_valid : bool;
  tr_overlay : overlay option;  (* trace-level elision plans, if any *)
}

type t = {
  vm : Jt_vm.Vm.t;
  profile : profile;
  client : client option;
  chain : bool;
  ibl : bool;
  trace : bool;
  trace_elide : bool;
  cache : (int, cached) Hashtbl.t;
  (* 4KiB-page index over [cache]: every block is registered under each
     page its byte span overlaps, so a range invalidation visits only the
     affected pages instead of folding over the whole code cache. *)
  pages : (int, cached list ref) Hashtbl.t;
  (* Per-module rewrite-rule hash tables (Figure 5), keyed by the owning
     module's load order and reached through the loader's interval-indexed
     [module_at] instead of a linear scan. *)
  tables : (int, Jt_rules.Rules.Table.t) Hashtbl.t;
  traces : (int, trace) Hashtbl.t;
  mutable n_traces_live : int;
      (* incremental live-trace count; [traces_live_scan] is the full
         recount it must always agree with (asserted after every run) *)
  mutable recording : (int * cached list) option;
      (* trace being recorded: head address, constituents in reverse *)
  (* Static claim partition read from the stored IR's aux tables at
     module load, keyed by *runtime* instruction address (load-base
     adjusted like the rule tables).  Consulted by the trace overlay
     planner purely for accounting: a drop at a [Claims.checked] address
     is redundancy the static elision passes could not prove. *)
  claims : (int, int) Hashtbl.t;
  stats : stats;
}

let max_block_insns = 256

let page_shift = 12

(* Trace-formation constants (NET: "next-executing tail").  A head is a
   block entered [hot_threshold] times through the dispatcher-level
   paths; the trace then records up to [max_trace_len] blocks of the
   execution that follows. *)
let hot_threshold = 32

let max_trace_len = 16

let ibl_ways = 4

let index_add t (c : cached) =
  for p = c.cb.bb_addr asr page_shift to (c.cb_end - 1) asr page_shift do
    let b =
      match Hashtbl.find_opt t.pages p with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.replace t.pages p b;
        b
    in
    b := c :: !b
  done

let index_remove t (c : cached) =
  for p = c.cb.bb_addr asr page_shift to (c.cb_end - 1) asr page_shift do
    match Hashtbl.find_opt t.pages p with
    | Some b -> b := List.filter (fun o -> o != c) !b
    | None -> ()
  done

(* Tear a trace down: mark it dead, keep the live count in step, unhook
   it from its constituents' back-pointer lists and drop it from the
   head table.  Idempotent — the eager path (invalidate) and the lazy
   path (a side exit noticing a dead constituent) may both reach the
   same trace. *)
let drop_trace t tr =
  if tr.tr_valid then begin
    tr.tr_valid <- false;
    t.n_traces_live <- t.n_traces_live - 1;
    Array.iter
      (fun (c : cached) ->
        c.cb_traces <- List.filter (fun o -> o != tr) c.cb_traces)
      tr.tr_blocks;
    if Jt_trace.Trace.is_enabled () then
      Jt_trace.Trace.emit (Jt_trace.Trace.Trace_teardown { head = tr.tr_head });
    match Hashtbl.find_opt t.traces tr.tr_head with
    | Some cur when cur == tr -> Hashtbl.remove t.traces tr.tr_head
    | Some _ | None -> ()
  end

let invalidate t (c : cached) =
  c.cb_valid <- false;
  (* any trace built over this block dies with it — eagerly, so that a
     severed trace can never be entered with its elision overlay active
     and so the live count stays exact *)
  (let trs = c.cb_traces in
   c.cb_traces <- [];
   List.iter (fun tr -> drop_trace t tr) trs);
  if Jt_trace.Trace.is_enabled () then begin
    let sever = function
      | Some (o : cached) ->
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Chain_sever
             { from_pc = c.cb.bb_addr; to_pc = o.cb.bb_addr })
      | None -> ()
    in
    sever c.cb_link_taken;
    sever c.cb_link_fall
  end;
  c.cb_link_taken <- None;
  c.cb_link_fall <- None;
  (* Inline-cache entries into the dead block are severed lazily by the
     probe's [cb_valid] check; the dead block's own site cache is cleared
     eagerly so it stops pinning other blocks. *)
  c.cb_ibl_last <- None;
  Array.fill c.cb_ibl 0 (Array.length c.cb_ibl) None;
  (match Hashtbl.find_opt t.cache c.cb.bb_addr with
  | Some cur when cur == c -> Hashtbl.remove t.cache c.cb.bb_addr
  | Some _ | None -> ());
  index_remove t c

(* Invalidate every cached block whose byte span overlaps the flushed
   range; empty (decode-faulting) blocks count as length 1 so a flush
   that covers their address retires them too. *)
let flush_blocks t start len =
  if len > 0 then begin
    let m = Jt_metrics.Metrics.Counters.current () in
    for p = start asr page_shift to (start + len - 1) asr page_shift do
      match Hashtbl.find_opt t.pages p with
      | None -> ()
      | Some b ->
        let doomed =
          List.filter
            (fun (c : cached) ->
              m.c_flush_visits <- m.c_flush_visits + 1;
              c.cb_valid && c.cb_end > start && c.cb.bb_addr < start + len)
            !b
        in
        List.iter
          (fun c ->
            m.c_flush_drops <- m.c_flush_drops + 1;
            invalidate t c)
          doomed
    done
  end

let claims_prefix = "claims/v1:"

let is_claims_key k =
  String.length k >= String.length claims_prefix
  && String.sub k 0 (String.length claims_prefix) = claims_prefix

let create ~vm ?(profile = dynamorio) ?client ?(chain = true) ?(ibl = true)
    ?(trace = true) ?(trace_elide = true) ?(rules_for = fun _ -> None)
    ?(ir_for = fun _ -> None) () =
  let t =
    {
      vm;
      profile;
      client;
      chain;
      ibl;
      trace;
      trace_elide;
      cache = Hashtbl.create 4096;
      pages = Hashtbl.create 256;
      tables = Hashtbl.create 8;
      traces = Hashtbl.create 64;
      n_traces_live = 0;
      recording = None;
      claims = Hashtbl.create 256;
      stats =
        {
          st_blocks_static = 0;
          st_blocks_dynamic = 0;
          st_block_execs = 0;
          st_indirects = 0;
          st_rules_applied = 0;
          st_chain_hits = 0;
          st_dispatch_entries = 0;
          st_ibl_hits = 0;
          st_ibl_misses = 0;
          st_traces_built = 0;
          st_trace_execs = 0;
          st_trace_interior = 0;
          st_decode_faults = 0;
          st_claim_checked_drops = 0;
        };
    }
  in
  (* (1) in Figure 4: when a module is loaded, read its rewrite rules into
     a fresh hash table, adjusting addresses by the load base for PIC. *)
  Jt_loader.Loader.on_load vm.Jt_vm.Vm.loader (fun l ->
      (match rules_for l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name with
      | None -> ()
      | Some file ->
        let table =
          Jt_rules.Rules.Table.load file ~base:l.Jt_loader.Loader.base
            ~pic:(Jt_obj.Objfile.is_pic l.Jt_loader.Loader.lmod)
        in
        Hashtbl.replace t.tables l.Jt_loader.Loader.load_order table);
      (* The overlay planner's view of the static claim partition, from
         the module's stored IR.  A malformed aux table is dropped with a
         warning — claims only feed accounting, never behavior. *)
      match ir_for l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name with
      | None -> ()
      | Some ir ->
        let base = l.Jt_loader.Loader.base in
        let pic = Jt_obj.Objfile.is_pic l.Jt_loader.Loader.lmod in
        let adjust a = if pic then a + base else a in
        List.iter
          (fun (key, payload) ->
            if is_claims_key key then
              match Jt_ir.Ir.Claims.decode payload with
              | fns ->
                List.iter
                  (fun (fc : Jt_ir.Ir.Claims.fn_claims) ->
                    List.iter
                      (fun (addr, code, _witness) ->
                        Hashtbl.replace t.claims (adjust addr) code)
                      fc.fc_claims)
                  fns
              | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
              | exception e ->
                Printf.eprintf
                  "janitizer: warning: ignoring malformed claims table %s \
                   for %s (%s)\n%!"
                  key l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name
                  (Printexc.to_string e))
          ir.Jt_ir.Ir.ir_aux);
  (* Cache-flush syscalls (JIT regeneration) invalidate affected blocks. *)
  Jt_vm.Vm.on_cache_flush vm (fun start len -> flush_blocks t start len);
  t

let table_for t addr =
  match Jt_loader.Loader.module_at t.vm.Jt_vm.Vm.loader addr with
  | Some l -> Hashtbl.find_opt t.tables l.Jt_loader.Loader.load_order
  | None -> None

let is_indirect_end (b : block) =
  if Array.length b.insns = 0 then false
  else
    let _, i, _ = b.insns.(Array.length b.insns - 1) in
    match Insn.cti_kind i with
    | Some (Insn.Cti_jmp_ind | Insn.Cti_call_ind | Insn.Cti_ret) -> true
    | Some (Insn.Cti_jmp _ | Insn.Cti_jcc _ | Insn.Cti_call _ | Insn.Cti_halt | Insn.Cti_syscall)
    | None ->
      false

(* Build the dynamic basic block starting at [addr]: decode until a
   control-transfer instruction (step (2) in Figure 4). *)
let build_block t addr =
  let insns = ref [] in
  let n = ref 0 in
  let pc = ref addr in
  let stop = ref false in
  while not !stop do
    match Jt_vm.Vm.fetch t.vm !pc with
    | None -> stop := true
    | Some (i, len) ->
      insns := (!pc, i, len) :: !insns;
      incr n;
      pc := !pc + len;
      if Insn.ends_block i || !n >= max_block_insns then stop := true
  done;
  { bb_addr = addr; insns = Array.of_list (List.rev !insns) }

(* Static successors of a block, for chaining: a block ending in a direct
   Jmp/Call has one known successor, a Jcc has two (target and
   fallthrough), and a block cut by the size limit (or by a non-CTI such
   as a syscall) falls through.  Indirect transfers, returns and halts
   have none. *)
let successors (b : block) =
  if Array.length b.insns = 0 then (-1, -1)
  else
    let la, i, ll = b.insns.(Array.length b.insns - 1) in
    match Insn.cti_kind i with
    | Some (Insn.Cti_jmp tgt) -> (tgt, -1)
    | Some (Insn.Cti_jcc (_, tgt)) -> (tgt, la + ll)
    | Some (Insn.Cti_call tgt) -> (tgt, -1)
    | Some (Insn.Cti_jmp_ind | Insn.Cti_call_ind | Insn.Cti_ret | Insn.Cti_halt)
      ->
      (-1, -1)
    | Some Insn.Cti_syscall | None -> (-1, la + ll)

(* Translate: classify the block against the rule tables ((3a)/(3b) in
   Figure 4) and let the client build its instrumentation plan. *)
let translate t addr =
  let b = build_block t addr in
  let translate_cycles =
    t.profile.p_translate_block
    + (t.profile.p_translate_insn * Array.length b.insns)
  in
  t.vm.Jt_vm.Vm.cycles <- t.vm.Jt_vm.Vm.cycles + translate_cycles;
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.phase_add_cycles Jt_trace.Trace.Rewrite translate_cycles;
  let table = table_for t addr in
  let static_hit =
    match table with
    | Some tbl -> Jt_rules.Rules.Table.bb_seen tbl addr
    | None -> false
  in
  if static_hit then t.stats.st_blocks_static <- t.stats.st_blocks_static + 1
  else t.stats.st_blocks_dynamic <- t.stats.st_blocks_dynamic + 1;
  let plan =
    match t.client with
    | None -> no_plan b
    | Some cl ->
      let rules_at =
        match (static_hit, table) with
        | true, Some tbl ->
          fun a ->
            let rs = Jt_rules.Rules.Table.at_insn tbl a in
            t.stats.st_rules_applied <- t.stats.st_rules_applied + List.length rs;
            rs
        | _ -> fun _ -> []
      in
      cl.cl_on_block t.vm b
        (if static_hit then Static_rules else Dynamic_only)
        ~rules_at
  in
  let cb_end =
    if Array.length b.insns = 0 then addr + 1
    else
      let la, _, ll = b.insns.(Array.length b.insns - 1) in
      la + ll
  in
  let succ_taken, succ_fall = successors b in
  let cached =
    {
      cb = b;
      cb_plan = plan;
      cb_indirect_end = is_indirect_end b;
      cb_end;
      cb_succ_taken = succ_taken;
      cb_succ_fall = succ_fall;
      cb_link_taken = None;
      cb_link_fall = None;
      cb_valid = true;
      cb_ibl_last = None;
      cb_ibl = Array.make ibl_ways None;
      cb_ibl_rr = 0;
      cb_hot = 0;
      cb_origin =
        (if static_hit then Jt_trace.Trace.Static else Jt_trace.Trace.Dynamic);
      cb_traces = [];
    }
  in
  if Jt_trace.Trace.is_enabled () then
    Jt_trace.Trace.emit
      (Jt_trace.Trace.Block_translate
         { pc = addr; insns = Array.length b.insns; origin = cached.cb_origin });
  (match Hashtbl.find_opt t.cache addr with
  | Some old -> invalidate t old
  | None -> ());
  Hashtbl.replace t.cache addr cached;
  index_add t cached;
  cached

(* ---- per-site indirect-branch inline caches ---- *)

let ibl_probe (p : cached) pc =
  match p.cb_ibl_last with
  | Some c when c.cb_valid && c.cb.bb_addr = pc -> Some c
  | _ ->
    let n = Array.length p.cb_ibl in
    let rec scan i =
      if i >= n then None
      else
        match p.cb_ibl.(i) with
        | Some c when c.cb_valid && c.cb.bb_addr = pc ->
          p.cb_ibl_last <- Some c;
          Some c
        | Some _ | None -> scan (i + 1)
    in
    scan 0

let ibl_install (p : cached) (c : cached) =
  p.cb_ibl_last <- Some c;
  let n = Array.length p.cb_ibl in
  (* reuse a dead or duplicate way if one exists, else evict round-robin *)
  let rec free i =
    if i >= n then None
    else
      match p.cb_ibl.(i) with
      | Some o when o.cb_valid && o != c -> free (i + 1)
      | Some _ | None -> Some i
  in
  let slot =
    match free 0 with
    | Some i -> i
    | None ->
      let v = p.cb_ibl_rr in
      p.cb_ibl_rr <- (v + 1) mod n;
      v
  in
  p.cb_ibl.(slot) <- Some c

(* ---- block / trace execution ---- *)

(* Run one translated block's instructions (with their instrumentation
   plan).  The fuel budget is checked before every instruction, not just
   between blocks, so Out_of_fuel fires within one instruction of the
   budget even inside a maximal 256-instruction block or a long chain. *)
let exec_insns t ~budget ~(plan : plan) (c : cached) =
  let vm = t.vm in
  let n = Array.length c.cb.insns in
  let k = ref 0 in
  while !k < n && vm.Jt_vm.Vm.status = Jt_vm.Vm.Running do
    if vm.Jt_vm.Vm.icount >= budget then
      vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
    else begin
      let at, i, len = c.cb.insns.(!k) in
      List.iter
        (fun m ->
          Jt_vm.Vm.charge vm m.m_cost;
          match m.m_action with Some f -> f vm | None -> ())
        plan.(!k);
      Jt_vm.Vm.step_decoded vm ~at i len;
      incr k
    end
  done

(* With the IBL on, the cost of an ending indirect transfer depends on
   the probe outcome and is charged by the dispatch loop (or by the
   trace executor for in-trace transitions); with it off the flat
   [p_indirect] charge lands here, as before. *)
let exec_block t ~budget (c : cached) =
  let vm = t.vm in
  t.stats.st_block_execs <- t.stats.st_block_execs + 1;
  if Jt_trace.Trace.is_enabled () then begin
    Jt_trace.Trace.set_exec_origin c.cb_origin;
    Jt_trace.Trace.emit (Jt_trace.Trace.Block_exec { pc = c.cb.bb_addr })
  end;
  if t.profile.p_per_block > 0 then Jt_vm.Vm.charge vm t.profile.p_per_block;
  exec_insns t ~budget ~plan:c.cb_plan c;
  if c.cb_indirect_end && vm.Jt_vm.Vm.status = Jt_vm.Vm.Running then begin
    t.stats.st_indirects <- t.stats.st_indirects + 1;
    if not t.ibl then Jt_vm.Vm.charge vm t.profile.p_indirect
  end

(* Eager teardown maintains the invariant "[tr_valid] implies every
   constituent is valid", so liveness is a field read on the dispatch
   hot path instead of an O(len) scan. *)
let trace_alive tr = tr.tr_valid

let traces_live t = t.n_traces_live

(* The pre-invariant recount — O(traces · len) — kept as the debug
   oracle the incremental count is asserted against after every run. *)
let traces_live_scan t =
  Hashtbl.fold
    (fun _ tr n ->
      if tr.tr_valid && Array.for_all (fun c -> c.cb_valid) tr.tr_blocks then
        n + 1
      else n)
    t.traces 0

(* Execute a superblock trace.  Constituents run back to back with their
   instrumentation plans; after each one, control stays inside the trace
   only if the machine's next PC really is the next constituent's head
   (so a Jcc going the other way, an indirect transfer to a new target,
   or a constituent invalidated by a flush mid-trace all side-exit to
   the dispatcher, which re-resolves from scratch).  An in-trace
   indirect transition pays only the inlined-comparison price
   [p_ibl_hit]; the final block's exit is resolved by the dispatcher
   exactly like a plain block's.  [streak] selects the steady-state
   elision plans — legal only when this very trace completed head to
   tail on the immediately preceding dispatch, so the availability
   carried across the back-edge is real.  [streak_onset] marks the first
   streak-mode execution of a consecutive run: that is when the
   induction guard (if any) pays for the hoisted per-iteration checks
   with its one pair of endpoint checks.  Returns the last constituent
   that executed (for the dispatcher's chain/IBL bookkeeping) and
   whether the trace ran to completion (to arm the next streak). *)

(* Run the endpoint checks that justify a trace's "trace-ind" drops.
   The remaining trip range is read off the live register file: [i0] is
   the induction register's current value (control is at the loop head),
   [last] comes from the bound operand.  Each hoisted check's own action
   is re-executed with the induction register rebound to the endpoint
   trip values — legal by the [M_check] purity contract — so the guard
   checks exactly the first and last addresses the elided per-iteration
   checks would have touched.  Interior trips are covered by the same
   heap-object contiguity argument as the static SCEV range check: with
   redzones only at object boundaries, a poisoned byte between two clean
   endpoints of a unit-stride walk cannot exist.  The guard charges each
   check's inline cost twice; the per-iteration copies it replaces
   charge nothing while elided. *)
let run_ind_guard vm (ig : ind_guard) =
  let i0 = Word.to_signed (Jt_vm.Vm.get vm ig.ig_ivar) in
  let bound =
    match ig.ig_bound with
    | Ib_imm v -> v
    | Ib_reg r -> Word.to_signed (Jt_vm.Vm.get vm r)
  in
  let last = if ig.ig_incl then bound else bound - 1 in
  if last >= i0 then begin
    let saved = Jt_vm.Vm.get vm ig.ig_ivar in
    List.iter
      (fun ((m : meta), off) ->
        match m.m_action with
        | None -> ()
        | Some act ->
          Jt_vm.Vm.set vm ig.ig_ivar (Word.of_int (i0 + off));
          act vm;
          Jt_vm.Vm.set vm ig.ig_ivar (Word.of_int (last + off));
          act vm;
          Jt_vm.Vm.charge vm (2 * m.m_cost))
      ig.ig_checks;
    Jt_vm.Vm.set vm ig.ig_ivar saved
  end

let exec_trace t ~budget ~streak ~streak_onset (tr : trace) =
  let vm = t.vm in
  let s = t.stats in
  s.st_trace_execs <- s.st_trace_execs + 1;
  let m = Jt_metrics.Metrics.Counters.current () in
  (if streak && streak_onset then
     match tr.tr_overlay with
     | Some { ov_ind = Some ig; _ } -> run_ind_guard vm ig
     | Some _ | None -> ());
  if t.profile.p_per_block > 0 then Jt_vm.Vm.charge vm t.profile.p_per_block;
  let n = Array.length tr.tr_blocks in
  let i = ref 0 in
  let last = ref tr.tr_blocks.(0) in
  let continue_ = ref true in
  while !continue_ do
    let c = tr.tr_blocks.(!i) in
    last := c;
    s.st_block_execs <- s.st_block_execs + 1;
    if !i > 0 then s.st_trace_interior <- s.st_trace_interior + 1;
    if Jt_trace.Trace.is_enabled () then begin
      Jt_trace.Trace.set_exec_origin c.cb_origin;
      Jt_trace.Trace.emit (Jt_trace.Trace.Block_exec { pc = c.cb.bb_addr })
    end;
    let plan =
      match tr.tr_overlay with
      | None -> c.cb_plan
      | Some ov ->
        if streak then begin
          m.c_san_trace_elide_dom <- m.c_san_trace_elide_dom + ov.ov_s_dom.(!i);
          m.c_san_trace_elide_streak <-
            m.c_san_trace_elide_streak + ov.ov_s_streak.(!i);
          m.c_san_trace_elide_ind <- m.c_san_trace_elide_ind + ov.ov_s_ind.(!i);
          ov.ov_plans_streak.(!i)
        end
        else begin
          m.c_san_trace_elide_dom <- m.c_san_trace_elide_dom + ov.ov_dom.(!i);
          ov.ov_plans.(!i)
        end
    in
    exec_insns t ~budget ~plan c;
    let running = vm.Jt_vm.Vm.status = Jt_vm.Vm.Running in
    if c.cb_indirect_end && running then s.st_indirects <- s.st_indirects + 1;
    if (not running) || !i = n - 1 then begin
      (if c.cb_indirect_end && running && not t.ibl then
         Jt_vm.Vm.charge vm t.profile.p_indirect);
      continue_ := false
    end
    else begin
      let next = tr.tr_blocks.(!i + 1) in
      if next.cb_valid && vm.Jt_vm.Vm.pc = next.cb.bb_addr then begin
        (if c.cb_indirect_end then
           Jt_vm.Vm.charge vm
             (if t.ibl then t.profile.p_ibl_hit else t.profile.p_indirect));
        incr i
      end
      else begin
        (if c.cb_indirect_end && not t.ibl then
           Jt_vm.Vm.charge vm t.profile.p_indirect);
        (* a dead constituent means a flush hit the trace: tear it down
           (the eager path normally already has) so the head can re-form
           over the regenerated code; the side exit re-enters the
           dispatcher, where the constituents' own untouched [cb_plan]s
           govern — every trace-elided check is back in force *)
        if not next.cb_valid then drop_trace t tr;
        continue_ := false
      end
    end
  done;
  let completed =
    !i = n - 1 && vm.Jt_vm.Vm.status = Jt_vm.Vm.Running && tr.tr_valid
  in
  (!last, completed)

(* ---- trace-spine elision ----

   A trace is a single-entry straight line, so the JASan availability
   must-analysis becomes exact along it: a check whose address key is
   already available when control reaches it (no barrier, no redefinition
   of the key's registers since an earlier identical check) is redundant
   for this path, across constituent-block boundaries the per-block
   static pass cannot see.  The analysis runs once at trace-build time
   over the flattened spine; its product is an overlay of thinned plans,
   never a mutation of the constituents' own [cb_plan]s. *)

module KS = Jt_analysis.Avail.Set

type spine_el = {
  se_bi : int;  (* constituent position within the trace *)
  se_k : int;  (* instruction slot within the constituent *)
  se_addr : int;
  se_insn : Insn.t;
  se_metas : meta list;
}

(* One decision walk from a given entry availability: which checks may
   be dropped, each with the earlier site that witnesses it, plus the
   availability at the spine's exit.  A check gens its key; a poisoning
   shadow write clears everything, as does any opaque action the pass
   cannot see through; an unpoison only widens what is addressable, so
   it is no barrier.  On a straight line one forward pass is the
   fixpoint, and its exit state is also the back-edge fixpoint, so
   re-walking from it yields the steady-state (streak) plan.  The
   witness table maps an available key to the address of the check that
   made it available; passing the base walk's table into the streak walk
   carries witnesses across the back-edge.  With [base] (the base walk's
   drops), a drop the base walk did not make is justified only by the
   carried-over availability: a loop-invariant ("trace-streak") elision. *)
let decide_spine ?base ~entry ~wit spine =
  let drops = Hashtbl.create 16 in
  let chk = ref entry in
  Array.iter
    (fun el ->
      List.iteri
        (fun j (m : meta) ->
          match m.m_kind with
          | M_check k ->
            if KS.mem k !chk then begin
              let key = (el.se_bi, el.se_k, j) in
              let reason =
                match base with
                | Some b when not (Hashtbl.mem b key) -> "trace-streak"
                | Some _ | None -> "trace-dom"
              in
              let witness = Option.value ~default:0 (Hashtbl.find_opt wit k) in
              Hashtbl.replace drops key (reason, witness, el.se_addr)
            end
            else begin
              Hashtbl.replace wit k el.se_addr;
              chk := KS.add k !chk
            end
          | M_unpoison -> ()
          | M_shadow_write -> chk := KS.empty
          | M_opaque -> (
            match m.m_action with Some _ -> chk := KS.empty | None -> ()))
        el.se_metas;
      chk := Jt_analysis.Avail.insn_transfer el.se_insn !chk)
    spine;
  (drops, !chk)

(* Recognize the counted-loop shape on a spine and collect the affine
   checks the induction guard can hoist.  Mirrors the static SCEV
   recognizer ([cmp ivar, bound; jcc {>=,>} exit] at the head, exactly
   one definition of [ivar] and it is [add ivar, 1]) but accepts a
   register-held bound, provided that register is never written on the
   spine — the streak re-entry condition makes "never written on the
   spine" equivalent to "stable for the remaining trips".  The whole
   spine is disqualified if anything on it can change shadow state
   (calls/syscalls, poisoning or unpoisoning metas, opaque actions):
   the guard checks shadow once at onset, so shadow must be frozen for
   the streak's duration.  Returns the guard plus the plan positions of
   the hoisted checks (with their instruction addresses, for the
   decision log). *)
let detect_induction ~drops_streak (spine : spine_el array) =
  let n = Array.length spine in
  if n < 3 then None
  else begin
    (* The [cmp ivar, bound; jcc {>=,>}] exit test sits at the spine's
       head when the trace was recorded from the loop-head block, or at
       its tail when NET picked the (hotter) body block and the spine is
       the same iteration rotated.  Either way the trip-range math is
       identical: under a streak, re-entry came through the test's
       fall-through, so the onset value [i0] is a trip the body really
       runs (tail form) or is gated before any access (head form).  The
       trace must stay on the fall-through path: a taken target that
       re-enters the spine would invert the exit semantics. *)
    let pair_at p =
      match (spine.(p).se_insn, spine.(p + 1).se_insn) with
      | Insn.Cmp (ivar, bnd), Insn.Jcc (cond, target) -> (
        let stays_in_trace =
          if p + 2 < n then target = spine.(p + 2).se_addr
          else target = spine.(0).se_addr
        in
        match cond with
        | _ when stays_in_trace -> None
        | Insn.Gt | Insn.Ugt -> Some (ivar, bnd, true)
        | Insn.Ge | Insn.Uge -> Some (ivar, bnd, false)
        | _ -> None)
      | _ -> None
    in
    let pair =
      match pair_at (n - 2) with
      | Some (i, b, inc) -> Some (i, b, inc, n - 2)
      | None -> (
        match pair_at 0 with
        | Some (i, b, inc) -> Some (i, b, inc, 0)
        | None -> None)
    in
    match pair with
    | None -> None
    | Some (ivar, bnd, ig_incl, cmp_pos) ->
      let defined r =
        Array.exists
          (fun el -> List.exists (Reg.equal r) (Insn.defs el.se_insn))
          spine
      in
      let ivar_defs = ref [] in
      Array.iter
        (fun el ->
          if List.exists (Reg.equal ivar) (Insn.defs el.se_insn) then
            ivar_defs := el.se_insn :: !ivar_defs)
        spine;
      let unit_step =
        match !ivar_defs with
        | [ Insn.Binop (Insn.Add, r, Insn.Imm 1) ] -> Reg.equal r ivar
        | _ -> false
      in
      let bound =
        match bnd with
        | Insn.Imm v -> Some (Ib_imm (Word.to_signed v))
        | Insn.Reg r ->
          if Reg.equal r ivar || defined r then None else Some (Ib_reg r)
      in
      let shadow_frozen =
        not
          (Array.exists
             (fun el ->
               (match el.se_insn with
               | Insn.Call _ | Insn.Call_ind _ | Insn.Syscall _ -> true
               | _ -> false)
               || List.exists
                    (fun (m : meta) ->
                      match (m.m_kind, m.m_action) with
                      | (M_shadow_write | M_unpoison), _ -> true
                      | M_opaque, Some _ -> true
                      | (M_opaque | M_check _), _ -> false)
                    el.se_metas)
             spine)
      in
      if not (unit_step && shadow_frozen) then None
      else (
        match bound with
        | None -> None
        | Some ig_bound ->
          let inc_seen = ref 0 in
          let checks = ref [] and sites = ref [] in
          Array.iter
            (fun el ->
              List.iteri
                (fun j (m : meta) ->
                  match m.m_kind with
                  | M_check (b, x, _s, _d, _w)
                    when x = Reg.index ivar
                         && b <> Reg.index ivar
                         && (b < 0 || not (defined (Reg.of_index b)))
                         && not (Hashtbl.mem drops_streak (el.se_bi, el.se_k, j))
                    ->
                    checks := (m, !inc_seen) :: !checks;
                    sites := ((el.se_bi, el.se_k, j), el.se_addr) :: !sites
                  | _ -> ())
                el.se_metas;
              if List.exists (Reg.equal ivar) (Insn.defs el.se_insn) then
                incr inc_seen)
            spine;
          if !checks = [] then None
          else
            Some
              ( { ig_ivar = ivar; ig_bound; ig_incl; ig_checks = List.rev !checks },
                spine.(cmp_pos).se_addr,
                List.rev !sites ))
  end

let build_overlay (blocks : cached array) =
  let n = Array.length blocks in
  let spine =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun bi (c : cached) ->
              Array.mapi
                (fun k (addr, insn, _len) ->
                  {
                    se_bi = bi;
                    se_k = k;
                    se_addr = addr;
                    se_insn = insn;
                    se_metas = c.cb_plan.(k);
                  })
                c.cb.insns)
            blocks))
  in
  let wit = Hashtbl.create 16 in
  let drops_base, out = decide_spine ~entry:KS.empty ~wit spine in
  let drops_streak, _ = decide_spine ~base:drops_base ~entry:out ~wit spine in
  (* induction-range hoisting is streak-only: the cold plans keep the
     per-iteration checks, the steady-state plans trade them for the
     onset guard.  The witness recorded for a "trace-ind" drop is the
     loop-head compare whose bound the guard reads. *)
  let ind = detect_induction ~drops_streak spine in
  (match ind with
  | Some (_, cmp_addr, sites) ->
    List.iter
      (fun (key, addr) ->
        Hashtbl.replace drops_streak key ("trace-ind", cmp_addr, addr))
      sites
  | None -> ());
  if Hashtbl.length drops_base = 0 && Hashtbl.length drops_streak = 0 then
    None
  else begin
    let filter_plans drops =
      Array.mapi
        (fun bi (c : cached) ->
          Array.mapi
            (fun k metas ->
              List.filteri
                (fun j _ -> not (Hashtbl.mem drops (bi, k, j)))
                metas)
            c.cb_plan)
        blocks
    in
    let counts drops reason =
      let a = Array.make n 0 in
      Hashtbl.iter
        (fun (bi, _, _) (r, _, _) -> if r = reason then a.(bi) <- a.(bi) + 1)
        drops;
      a
    in
    let decisions =
      Hashtbl.fold (fun _ (r, w, a) acc -> (a, r, w) :: acc) drops_base []
      @ Hashtbl.fold
          (fun key (r, w, a) acc ->
            if Hashtbl.mem drops_base key then acc else (a, r, w) :: acc)
          drops_streak []
      |> List.sort compare
    in
    Some
      {
        ov_plans = filter_plans drops_base;
        ov_plans_streak = filter_plans drops_streak;
        ov_ind = Option.map (fun (g, _, _) -> g) ind;
        ov_dom = counts drops_base "trace-dom";
        ov_s_dom = counts drops_streak "trace-dom";
        ov_s_streak = counts drops_streak "trace-streak";
        ov_s_ind = counts drops_streak "trace-ind";
        ov_decisions = decisions;
      }
  end

(* ---- trace recording (NET) ---- *)

let finalize_recording t =
  match t.recording with
  | None -> ()
  | Some (head, acc) ->
    t.recording <- None;
    (* keep the longest prefix still alive and executable *)
    let rec prefix = function
      | c :: rest when c.cb_valid && Array.length c.cb.insns > 0 ->
        c :: prefix rest
      | _ -> []
    in
    let blocks = prefix (List.rev acc) in
    if List.length blocks >= 2 then begin
      let arr = Array.of_list blocks in
      let overlay = if t.trace_elide then build_overlay arr else None in
      (* a dead predecessor may still sit in the table under this head;
         retire it cleanly so the live count stays exact *)
      (match Hashtbl.find_opt t.traces head with
      | Some old -> drop_trace t old
      | None -> ());
      let tr =
        { tr_head = head; tr_blocks = arr; tr_valid = true; tr_overlay = overlay }
      in
      Hashtbl.replace t.traces head tr;
      t.n_traces_live <- t.n_traces_live + 1;
      Array.iter
        (fun (c : cached) ->
          if not (List.memq tr c.cb_traces) then
            c.cb_traces <- tr :: c.cb_traces)
        arr;
      t.stats.st_traces_built <- t.stats.st_traces_built + 1;
      (* Accounting against the static claim partition: an overlay drop
         at an address the static pass kept ([Claims.checked]) is
         redundancy only visible at trace granularity. *)
      (match overlay with
      | Some ov ->
        List.iter
          (fun (insn, _, _) ->
            match Hashtbl.find_opt t.claims insn with
            | Some code when code = Jt_ir.Ir.Claims.checked ->
              t.stats.st_claim_checked_drops <-
                t.stats.st_claim_checked_drops + 1
            | Some _ | None -> ())
          ov.ov_decisions
      | None -> ());
      if Jt_trace.Trace.is_enabled () then begin
        Jt_trace.Trace.emit
          (Jt_trace.Trace.Trace_build { head; blocks = Array.length arr });
        match overlay with
        | Some ov ->
          List.iter
            (fun (insn, reason, witness) ->
              Jt_trace.Trace.emit
                (Jt_trace.Trace.Trace_elide { head; insn; reason; witness }))
            ov.ov_decisions
        | None -> ()
      end
    end

(* Head-execution counting and recording bookkeeping for one
   dispatcher-level entry of [c] at [pc] (not reached through a trace).
   Ends an in-progress recording when it loops back to its head, reaches
   another live trace's head, or hits the length cap; otherwise appends
   the entered block.  A block whose entry count crosses the hot
   threshold (and that has no live trace yet) starts a recording. *)
let note_entry t (c : cached) pc =
  match t.recording with
  | Some (head, acc) ->
    if
      pc = head
      || List.length acc >= max_trace_len
      || (match Hashtbl.find_opt t.traces pc with
         | Some tr -> trace_alive tr
         | None -> false)
    then finalize_recording t
    else t.recording <- Some (head, c :: acc)
  | None ->
    c.cb_hot <- c.cb_hot + 1;
    if
      c.cb_hot >= hot_threshold
      && (match Hashtbl.find_opt t.traces pc with
         | Some tr -> not (trace_alive tr)
         | None -> true)
    then t.recording <- Some (pc, [ c ])

(* The dispatch loop.  After a block whose last instruction is a direct
   transfer, the next PC is compared against the block's static
   successors: a previously installed chain link is followed without
   touching the code-cache hash table (a chain hit).  After an indirect
   transfer, the exiting block's per-site inline cache is probed: a hit
   costs [p_ibl_hit] and skips the dispatcher, a miss pays the full
   [p_indirect] lookup and installs the resolved target for next time.
   A live trace registered at the target address upgrades the entry to a
   superblock execution.  Chaining and traces affect only host-level
   dispatch work; the IBL additionally replaces the flat per-indirect
   charge with a hit/miss split (cheaper on hits, never dearer).
   Program output, instruction counts and violations are bit-identical
   with every combination of the knobs. *)
let run ?(fuel = 200_000_000) t =
  let vm = t.vm in
  let budget = vm.Jt_vm.Vm.icount + fuel in
  let prev : cached option ref = ref None in
  (* The streak: the trace that completed head-to-tail on the immediately
     preceding dispatch.  If the very next dispatch re-enters that same
     trace, only host dispatcher code ran in between, so the availability
     its spine analysis computed at the tail really holds at the head —
     the steady-state plan variant is legal.  Anything else (a plain
     block, a phase change, a side exit) breaks the streak. *)
  let streak : trace option ref = ref None in
  (* Whether the previous dispatch's trace execution already ran in
     streak mode: the induction guard fires only on the transition into
     a streak (onset), never on its continuation trips. *)
  let was_streak = ref false in
  (try
     while vm.Jt_vm.Vm.status = Jt_vm.Vm.Running do
       if vm.Jt_vm.Vm.icount >= budget then
         vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault Jt_vm.Vm.Out_of_fuel
       else if vm.Jt_vm.Vm.pc = Jt_vm.Vm.sentinel then begin
         (* A phase-ending return is still an indirect transfer; with the
            IBL on its (probe-skipping) charge lands here.  Not counted
            as an IBL miss: no code-cache lookup happens for the
            sentinel. *)
         (match !prev with
         | Some p when t.ibl && p.cb_indirect_end ->
           Jt_vm.Vm.charge vm t.profile.p_indirect
         | Some _ | None -> ());
         prev := None;
         streak := None;
         was_streak := false;
         Jt_vm.Vm.advance_phase vm
       end
       else begin
         let pc = vm.Jt_vm.Vm.pc in
         let linked =
           if not t.chain then None
           else
             match !prev with
             | Some p when p.cb_succ_taken = pc -> (
               match p.cb_link_taken with
               | Some c when c.cb_valid -> Some c
               | Some c ->
                 if Jt_trace.Trace.is_enabled () then
                   Jt_trace.Trace.emit
                     (Jt_trace.Trace.Chain_sever
                        { from_pc = p.cb.bb_addr; to_pc = c.cb.bb_addr });
                 p.cb_link_taken <- None;
                 None
               | None -> None)
             | Some p when p.cb_succ_fall = pc -> (
               match p.cb_link_fall with
               | Some c when c.cb_valid -> Some c
               | Some c ->
                 if Jt_trace.Trace.is_enabled () then
                   Jt_trace.Trace.emit
                     (Jt_trace.Trace.Chain_sever
                        { from_pc = p.cb.bb_addr; to_pc = c.cb.bb_addr });
                 p.cb_link_fall <- None;
                 None
               | None -> None)
             | Some _ | None -> None
         in
         (* [ibl_site] remembers the probed site so a dispatcher
            resolution can install the new target into it. *)
         let via_ibl, ibl_site =
           match (linked, !prev) with
           | None, Some p when t.ibl && p.cb_indirect_end -> (
             match ibl_probe p pc with
             | Some c ->
               Jt_vm.Vm.charge vm t.profile.p_ibl_hit;
               t.stats.st_ibl_hits <- t.stats.st_ibl_hits + 1;
               if Jt_trace.Trace.is_enabled () then
                 Jt_trace.Trace.emit
                   (Jt_trace.Trace.Ibl_hit { site = p.cb.bb_addr; target = pc });
               (Some c, Some p)
             | None ->
               Jt_vm.Vm.charge vm t.profile.p_indirect;
               t.stats.st_ibl_misses <- t.stats.st_ibl_misses + 1;
               if Jt_trace.Trace.is_enabled () then
                 Jt_trace.Trace.emit
                   (Jt_trace.Trace.Ibl_miss { site = p.cb.bb_addr; target = pc });
               (None, Some p))
           | _ -> (None, None)
         in
         let cached =
           match (linked, via_ibl) with
           | Some c, _ ->
             t.stats.st_chain_hits <- t.stats.st_chain_hits + 1;
             c
           | None, Some c -> c
           | None, None ->
             t.stats.st_dispatch_entries <- t.stats.st_dispatch_entries + 1;
             let c =
               match Hashtbl.find_opt t.cache pc with
               | Some c -> c
               | None -> translate t pc
             in
             (if t.chain then
                match !prev with
                | Some p when p.cb_valid ->
                  if p.cb_succ_taken = pc || p.cb_succ_fall = pc then begin
                    if p.cb_succ_taken = pc then p.cb_link_taken <- Some c
                    else p.cb_link_fall <- Some c;
                    if Jt_trace.Trace.is_enabled () then
                      Jt_trace.Trace.emit
                        (Jt_trace.Trace.Chain_link
                           { from_pc = p.cb.bb_addr; to_pc = pc })
                  end
                | Some _ | None -> ());
             (match ibl_site with
             | Some p when p.cb_valid -> ibl_install p c
             | Some _ | None -> ());
             c
         in
         if Array.length cached.cb.insns = 0 then begin
           t.stats.st_decode_faults <- t.stats.st_decode_faults + 1;
           vm.Jt_vm.Vm.status <- Jt_vm.Vm.Fault (Jt_vm.Vm.Decode_fault pc)
         end
         else begin
           let live_trace =
             if not t.trace then None
             else
               match Hashtbl.find_opt t.traces pc with
               | Some tr when trace_alive tr -> Some tr
               | Some tr ->
                 drop_trace t tr;
                 None
               | None -> None
           in
           let last =
             match live_trace with
             | Some tr ->
               (* reaching a live trace head ends any recording *)
               finalize_recording t;
               let use_streak =
                 match !streak with Some s -> s == tr | None -> false
               in
               let last, completed =
                 exec_trace t ~budget ~streak:use_streak
                   ~streak_onset:(use_streak && not !was_streak) tr
               in
               streak := (if completed then Some tr else None);
               was_streak := use_streak;
               last
             | None ->
               streak := None;
               was_streak := false;
               if t.trace then note_entry t cached pc;
               exec_block t ~budget cached;
               cached
           in
           prev :=
             if vm.Jt_vm.Vm.status = Jt_vm.Vm.Running && last.cb_valid then
               Some last
             else begin
               (* the exit of a block that invalidated itself cannot be
                  probed next iteration; settle its indirect charge now *)
               (if
                  t.ibl && last.cb_indirect_end
                  && vm.Jt_vm.Vm.status = Jt_vm.Vm.Running
                then Jt_vm.Vm.charge vm t.profile.p_indirect);
               None
             end
         end
       end
     done
   with Jt_vm.Vm.Security_abort why -> vm.Jt_vm.Vm.status <- Jt_vm.Vm.Aborted why);
  (* Every block execution must be accounted to exactly one entry path
     (dispatcher, chain link, IBL hit, or trace interior); dispatcher
     entries that resolve to an empty block decode-fault without
     executing.  Checked after every run, tracing enabled or not. *)
  let s = t.stats in
  Jt_trace.Trace.entry_accounting ~dispatch:s.st_dispatch_entries
    ~chain:s.st_chain_hits ~ibl:s.st_ibl_hits
    ~trace_interior:s.st_trace_interior ~decode_faults:s.st_decode_faults
    ~block_execs:s.st_block_execs;
  (* debug oracle for the incremental live count: eager teardown must
     keep it equal to a full recount at every quiescent point *)
  assert (t.n_traces_live = traces_live_scan t)

let stats t = t.stats

(* Zero the per-engine counters so an engine reused across workloads (or
   across repeated runs of one workload) reports per-run numbers.  The
   code cache, traces and inline caches are left intact: resetting stats
   must not change what executes. *)
let reset_stats t =
  let s = t.stats in
  s.st_blocks_static <- 0;
  s.st_blocks_dynamic <- 0;
  s.st_block_execs <- 0;
  s.st_indirects <- 0;
  s.st_rules_applied <- 0;
  s.st_chain_hits <- 0;
  s.st_dispatch_entries <- 0;
  s.st_ibl_hits <- 0;
  s.st_ibl_misses <- 0;
  s.st_traces_built <- 0;
  s.st_trace_execs <- 0;
  s.st_trace_interior <- 0;
  s.st_decode_faults <- 0;
  s.st_claim_checked_drops <- 0

(* Elision decisions of the live traces, sorted by head address:
   [(head, [(insn, reason, witness)])].  Diagnostics for the CLI's
   [analyze --facts] dump; reasons are ["trace-dom"], ["trace-streak"]
   and ["trace-ind"]. *)
let trace_elisions t =
  Hashtbl.fold
    (fun head tr acc ->
      match tr.tr_overlay with
      | Some ov when tr.tr_valid -> (head, ov.ov_decisions) :: acc
      | Some _ | None -> acc)
    t.traces []
  |> List.sort compare

let dynamic_block_fraction t =
  let s = t.stats in
  let total = s.st_blocks_static + s.st_blocks_dynamic in
  if total = 0 then 0.0
  else float_of_int s.st_blocks_dynamic /. float_of_int total
