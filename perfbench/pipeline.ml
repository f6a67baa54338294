(* One pipeline for every workload: harden each module (cold static pass,
   then a warm reload from the IR store), emit the JASan-instrumented
   program, run it under five arms and judge the results.  Every call into
   the system under test is public, and each is wrapped in a timeline step
   so that its host time is paired with the item's kernels. *)

open Jt_obj
module Sa = Janitizer.Static_analyzer
module Vm = Jt_vm.Vm
module Dbt = Jt_dbt.Dbt
module Rules = Jt_rules.Rules
module Counters = Jt_metrics.Metrics.Counters

(* ---- hardening ---- *)

type hardened = {
  h_jasan : Rules.file;
  h_jcfi : Rules.file;
  h_rule_bytes : int;
  h_elided_static : int;  (** JASan claims elided by the static pass *)
  h_warm_hit : bool;  (** the warm reload was served from the store *)
  h_failure : string option;  (** warm rules differ from cold *)
}

(* Per-layer facts only the traced decomposition measures. *)
type facts = {
  f_insns : int;
  f_blocks : int;
  f_vsa_iterations : int;
  f_ir_bytes : int;
}

let facts_zero = { f_insns = 0; f_blocks = 0; f_vsa_iterations = 0; f_ir_bytes = 0 }

let static_elisions () =
  let c = Counters.current () in
  c.c_san_elide_frame + c.c_san_elide_dom

let rulegen (step : Timeline.step) phase sa =
  let e0 = static_elisions () in
  let rj =
    step.step (phase ^ ".jasan_rules") (fun () ->
        (fst (Jt_jasan.Jasan.create ())).t_static sa)
  in
  let elided = static_elisions () - e0 in
  let rc =
    step.step (phase ^ ".jcfi_rules") (fun () ->
        (fst (Jt_jcfi.Jcfi.create ())).t_static sa)
  in
  let bytes =
    step.step (phase ^ ".rules_encode") (fun () ->
        (Rules.encode_file rj, Rules.encode_file rc))
  in
  (rj, rc, bytes, elided)

(* The passes [Static_analyzer.compute] runs, called one by one so each
   gets its own span; only traced rounds pay for this second analysis. *)
let decompose (step : Timeline.step) (m : Objfile.t) =
  let s name f = step.step ("pass." ^ name) f in
  let d = s "disasm" (fun () -> Jt_disasm.Disasm.run m) in
  let code_ptrs = s "disasm" (fun () -> Jt_disasm.Disasm.scan_code_pointers m) in
  let cfg = s "cfg" (fun () -> Jt_cfg.Cfg.build d) in
  let fns = s "cfg" (fun () -> Jt_cfg.Cfg.functions cfg) in
  let reliable = not (Objfile.has_feature m Objfile.Breaks_calling_convention) in
  s "liveness" (fun () ->
      if reliable then List.iter (fun fn -> ignore (Jt_analysis.Liveness.analyze fn)) fns
      else
        let sums = Jt_analysis.Interproc.summaries cfg in
        let call_summary e =
          Option.map
            (fun (x : Jt_analysis.Interproc.summary) -> (x.ip_clobbers, x.ip_reads))
            (Hashtbl.find_opt sums e)
        in
        List.iter
          (fun fn ->
            ignore (Jt_analysis.Liveness.analyze ~call_summary ~exit_all_live:true fn))
          fns);
  s "canary" (fun () -> List.iter (fun fn -> ignore (Jt_analysis.Canary.analyze fn)) fns);
  s "scev" (fun () -> List.iter (fun fn -> ignore (Jt_analysis.Scev.analyze fn)) fns);
  s "stackinfo" (fun () ->
      List.iter (fun fn -> ignore (Jt_analysis.Stackinfo.analyze fn)) fns);
  let vsas =
    s "vsa" (fun () ->
        List.map (fun fn -> (fn, Jt_analysis.Vsa.analyze ~trust_conventions:reliable fn)) fns)
  in
  s "domtree" (fun () -> List.iter (fun fn -> ignore (Jt_cfg.Domtree.compute fn)) fns);
  s "defuse" (fun () -> List.iter (fun fn -> ignore (Jt_analysis.Defuse.analyze fn)) fns);
  s "cpa" (fun () ->
      ignore
        (Jt_analysis.Cpa.analyze ~m ~entries:d.func_entries ~code_ptrs
           ~jump_table_targets:(List.concat_map snd d.jump_tables)
           vsas));
  {
    f_insns = Jt_cfg.Cfg.insn_count cfg;
    f_blocks = Jt_cfg.Cfg.block_count cfg;
    f_vsa_iterations =
      List.fold_left (fun acc (_, v) -> acc + Jt_analysis.Vsa.iterations v) 0 vsas;
    f_ir_bytes = 0;
  }

(* Cold: compute, JASan and JCFI rule generation, rule encoding, IR
   encode and store write.  Warm: store reload (disk read + [Ir.decode])
   and [of_ir], then the same rule generation, which must reproduce the
   cold rule bytes exactly.  The store has no memory layer, so the warm
   read really goes to disk. *)
let harden ?(traced = false) (step : Timeline.step) store (m : Objfile.t) =
  let digest = Objfile.digest m in
  let sa = step.step "cold.compute" (fun () -> Sa.compute m) in
  let rj, rc, (bj, bc), elided = rulegen step "cold" sa in
  step.step "cold.store_write" (fun () ->
      ignore (Jt_ir.Store.find_or_compute store ~digest ~name:m.name (fun () -> Sa.to_ir sa)));
  let hits0 = (Jt_ir.Store.stats store).st_disk_hits in
  let ir =
    step.step "warm.store_read" (fun () ->
        Jt_ir.Store.find_or_compute store ~digest ~name:m.name (fun () ->
            failwith ("IR store lost " ^ m.name)))
  in
  let sa' = step.step "warm.of_ir" (fun () -> Sa.of_ir m ir) in
  let _, _, (bj', bc'), _ = rulegen step "warm" sa' in
  let failure =
    if bj <> bj' || bc <> bc' then Some (m.name ^ ": warm rules differ from cold")
    else None
  in
  let facts =
    if not traced then facts_zero
    else begin
      let f = decompose step m in
      let ir_bytes = step.step "ir.encode" (fun () -> Jt_ir.Ir.encode (Sa.to_ir sa)) in
      let ir' = step.step "ir.decode" (fun () -> Jt_ir.Ir.decode ir_bytes) in
      let rj'', rc'' =
        step.step "rules.decode" (fun () -> (Rules.decode_file bj, Rules.decode_file bc))
      in
      step.step "check.codec" (fun () ->
          if ir' <> Sa.to_ir sa || rj'' <> rj || rc'' <> rc then
            failwith (m.name ^ ": codec round trip changed the content"));
      { f with f_ir_bytes = String.length ir_bytes }
    end
  in
  ( {
      h_jasan = rj;
      h_jcfi = rc;
      h_rule_bytes = String.length bj + String.length bc;
      h_elided_static = elided;
      h_warm_hit = (Jt_ir.Store.stats store).st_disk_hits > hits0;
      h_failure = failure;
    },
    facts )

(* ---- programs and arms ---- *)

type prog = {
  p_name : string;
  p_main : string;
  p_registry : Objfile.t list;
  p_closure : Objfile.t list;  (** what the static analyzer sees *)
  p_case : Jt_fuzz.Fuzz.case option;  (** fuzz expectations, if any *)
  p_emits : bool;  (** the emitter must accept it (else: a typed refusal) *)
}

let prog_of_sheet (w : Jt_workloads.Specgen.t) =
  let main = w.w_sheet.s_name in
  {
    p_name = main;
    p_main = main;
    p_registry = w.w_registry;
    p_closure = Janitizer.Driver.static_closure ~registry:w.w_registry ~main;
    p_case = None;
    p_emits = w.w_sheet.s_lang = Jt_workloads.Sheet.C;
  }

let prog_of_case c =
  let m = Jt_fuzz.Fuzz.build c in
  let registry = [ m; Jt_workloads.Stdlibs.libc ] in
  {
    p_name = Jt_fuzz.Fuzz.case_name c;
    p_main = m.name;
    p_registry = registry;
    p_closure = Janitizer.Driver.static_closure ~registry ~main:m.name;
    p_case = Some c;
    p_emits = true;
  }

(* Everything the arms need besides the program itself. *)
type ready = {
  jasan_rules : (string * Rules.file) list;
  jcfi_rules : (string * Rules.file) list;
  emitted : (Jt_emit.Emit.program, Jt_emit.Emit.refusal) result;
}

let emit (step : Timeline.step) store p =
  step.step "emit.rewrite" (fun () ->
      Jt_emit.Emit.emit_program ~store
        ~tool:(Jt_emit.Emit.Asan { elide = true })
        ~registry:p.p_registry ~main:p.p_main ())

let ready_of ~rules emitted p =
  let pick f =
    List.map (fun (m : Objfile.t) -> (m.name, f (rules (Objfile.digest m)))) p.p_closure
  in
  {
    jasan_rules = pick (fun h -> h.h_jasan);
    jcfi_rules = pick (fun h -> h.h_jcfi);
    emitted = Result.map_error snd emitted;
  }

type arm = Native | Null | Jasan | Jcfi | Emitted

let arms = [ Native; Null; Jasan; Jcfi; Emitted ]

let arm_name = function
  | Native -> "native"
  | Null -> "null"
  | Jasan -> "jasan"
  | Jcfi -> "jcfi"
  | Emitted -> "emitted"

type run = {
  r_res : Vm.result;
  r_stats : Dbt.stats option;
  r_counters : (string * int) list;
  r_sites : int;
  r_pins : int;
}

(* The composition [Janitizer.Driver.run] (and [run_null], [run_native],
   [Jt_emit.Emit.run]) performs with precomputed rules, split so that
   loading and execution are separate steps.  The benchmark's tests check
   that it yields the driver's own results. *)
let run_arm (step : Timeline.step) p rd arm =
  let key s = arm_name arm ^ "." ^ s in
  Counters.reset ();
  let registry = p.p_registry and main = p.p_main in
  let with_tool (tool : Janitizer.Tool.t) rules =
    let vm, engine =
      step.step (key "boot") (fun () ->
          let vm = Vm.make ~registry in
          let engine =
            Dbt.create ~vm ~client:tool.t_client
              ~rules_for:(fun n -> List.assoc_opt n rules)
              ()
          in
          Jt_loader.Loader.on_load vm.loader (fun l ->
              tool.t_on_load vm l (List.assoc_opt l.lmod.name rules));
          tool.t_setup vm;
          Vm.boot vm ~main;
          (vm, engine))
    in
    step.step (key "run") (fun () ->
        if vm.status = Vm.Running then Dbt.run engine);
    (vm, Some (Dbt.stats engine), 0, 0)
  in
  let vm, stats, sites, pins =
    match arm with
    | Native ->
      let vm =
        step.step (key "boot") (fun () ->
            let vm = Vm.make ~registry in
            Vm.boot vm ~main;
            vm)
      in
      step.step (key "run") (fun () -> if vm.status = Vm.Running then Vm.run vm);
      (vm, None, 0, 0)
    | Null ->
      let vm, engine =
        step.step (key "boot") (fun () ->
            let vm = Vm.make ~registry in
            let engine = Dbt.create ~vm () in
            Vm.boot vm ~main;
            (vm, engine))
      in
      step.step (key "run") (fun () ->
          if vm.status = Vm.Running then Dbt.run engine);
      (vm, Some (Dbt.stats engine), 0, 0)
    | Jasan -> with_tool (fst (Jt_jasan.Jasan.create ())) rd.jasan_rules
    | Jcfi -> with_tool (fst (Jt_jcfi.Jcfi.create ())) rd.jcfi_rules
    | Emitted -> (
      match rd.emitted with
      | Error r -> failwith ("no emitted program: " ^ Jt_emit.Emit.refusal_to_string r)
      | Ok ep ->
        let vm, rt =
          step.step (key "boot") (fun () ->
              let vm = Vm.make ~registry:ep.p_registry in
              let rt =
                Jt_emit.Emit.attach ~tool:ep.p_tool
                  ~rules_for:(fun n -> List.assoc_opt n ep.p_rules)
                  vm
              in
              Vm.boot vm ~main;
              (vm, rt))
        in
        step.step (key "run") (fun () -> if vm.status = Vm.Running then Vm.run vm);
        (vm, None, rt.r_stats.st_sites, rt.r_stats.st_pins))
  in
  {
    r_res = Vm.result vm;
    r_stats = stats;
    r_counters = Counters.snapshot ();
    r_sites = sites;
    r_pins = pins;
  }

let arms_for rd =
  List.filter (fun a -> a <> Emitted || Result.is_ok rd.emitted) arms

(* ---- judging ---- *)

let kinds (r : Vm.result) =
  List.sort_uniq compare (List.map (fun (v : Vm.violation) -> v.v_kind) r.r_violations)

let vset (r : Vm.result) =
  List.sort_uniq compare
    (List.map (fun (v : Vm.violation) -> (v.v_kind, v.v_addr)) r.r_violations)

(* The emitter must accept exactly the programs it is expected to. *)
let emit_failure p rd =
  match (rd.emitted, p.p_emits) with
  | Ok _, true | Error (Jt_emit.Emit.Unsupported_feature _), false -> None
  | Error r, _ ->
    Some (p.p_name ^ ": emitter refused: " ^ Jt_emit.Emit.refusal_to_string r)
  | Ok _, false -> Some (p.p_name ^ ": emitter accepted a program it must refuse")

(* Every failed check, attributed to the arm it convicts.  Native is the
   reference for status, output and instruction count. *)
let judge p (results : (arm * run) list) =
  let native = (List.assoc Native results).r_res in
  let expect arm =
    match (p.p_case, arm) with
    | Some c, Jasan -> Some (Jt_fuzz.Fuzz.expected c Jt_fuzz.Fuzz.Hybrid)
    | Some c, Emitted -> Some (Jt_fuzz.Fuzz.expected c Jt_fuzz.Fuzz.Emitted)
    | Some _, (Native | Null | Jcfi) | None, (Native | Null) ->
      Some (Jt_fuzz.Fuzz.Expect_kinds [])
    | None, (Jasan | Jcfi | Emitted) -> None
  in
  let failures = ref [] in
  let fail arm what =
    failures := (arm, Printf.sprintf "%s/%s: %s" p.p_name (arm_name arm) what) :: !failures
  in
  List.iter
    (fun (arm, r) ->
      let res = r.r_res in
      if res.r_status <> native.r_status then fail arm "status differs from native";
      if res.r_output <> native.r_output then fail arm "output differs from native";
      let icount = res.r_icount - r.r_sites - r.r_pins in
      if icount <> native.r_icount then
        fail arm (Printf.sprintf "icount %d (less sites and pins) <> native %d" icount native.r_icount);
      match expect arm with
      | Some (Jt_fuzz.Fuzz.Expect_kinds k) when kinds res <> k ->
        fail arm
          (Printf.sprintf "violation kinds [%s], expected [%s]"
             (String.concat " " (kinds res)) (String.concat " " k))
      | Some Jt_fuzz.Fuzz.Expect_refusal -> fail arm "expected a refusal"
      | _ -> ())
    results;
  (match (List.assoc_opt Jasan results, List.assoc_opt Emitted results) with
  | Some h, Some e when vset h.r_res <> vset e.r_res ->
    fail Emitted "violation set differs from the JASan hybrid run"
  | _ -> ());
  List.rev !failures
