(* The benchmark: three seeded workloads on one domain, host times paired
   with a fixed reference kernel.  See README.md.

     perfbench/main.exe --workload run-spec|harden|verdicts --seed N
                        --seconds S --trace 0|1

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1).  Per-item samples (raw time, kernel times,
   paired time) go to perfbench/out/<workload>-seed<N>-trace<T>.json, and
   the spans of a traced run to perfbench/out/spans-<workload>-seed<N>.jsonl. *)

module P = Pipeline
module T = Timeline
module Store = Jt_ir.Store

type workload = Run_spec | Harden | Verdicts

let workloads = [ ("run-spec", Run_spec); ("harden", Harden); ("verdicts", Verdicts) ]

let setup_reps = 9
let out_dir = Filename.concat "perfbench" "out"

(* ---- run state ---- *)

type fingerprint = {
  fp_status : Jt_vm.Vm.status;
  fp_icount : int;
  fp_cycles : int;
  fp_stats : int list;
  fp_counters : (string * int) list;
  fp_sites : int;
  fp_pins : int;
}

let fingerprint (r : P.run) =
  let stats =
    match r.r_stats with
    | None -> []
    | Some s ->
      [ s.st_blocks_static; s.st_blocks_dynamic; s.st_block_execs; s.st_indirects;
        s.st_rules_applied; s.st_chain_hits; s.st_dispatch_entries; s.st_ibl_hits;
        s.st_ibl_misses; s.st_traces_built; s.st_trace_execs; s.st_trace_interior;
        s.st_decode_faults; s.st_claim_checked_drops ]
  in
  {
    fp_status = r.r_res.r_status;
    fp_icount = r.r_res.r_icount;
    fp_cycles = r.r_res.r_cycles;
    fp_stats = stats;
    fp_counters = r.r_counters;
    fp_sites = r.r_sites;
    fp_pins = r.r_pins;
  }

type st = {
  trace : bool;
  tl : T.t;  (** the measured rounds *)
  stl : T.t;  (** one round per set-up repetition *)
  store_root : string;
  mutable store : Store.t;
  mutable stores : Store.t list;  (** every store of the run, removed at its end *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  runs : (string * P.arm, P.run * fingerprint) Hashtbl.t;  (** first round *)
  mods : (string, P.hardened) Hashtbl.t;  (** first result per item *)
  facts : (string, P.facts) Hashtbl.t;  (** first traced result per item *)
}

(* Each set-up repetition and each measured round writes into a fresh
   directory: deleting the previous round's entries in between made the
   next round's writes wait on the file system. *)
let fresh_store st =
  let dir = Filename.concat st.store_root (string_of_int (List.length st.stores)) in
  st.store <- Store.create ~capacity:0 ~dir ();
  st.stores <- st.store :: st.stores

let note st msg =
  st.failed <- st.failed + 1;
  if List.length st.notes < 20 then st.notes <- msg :: st.notes

(* One attempted operation; an exception is a failure, never a crash. *)
let guard st label f =
  st.attempted <- st.attempted + 1;
  match f () with
  | x -> Some x
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
    note st (label ^ ": " ^ Printexc.to_string e);
    None

let record_module st ~traced name (h, f) =
  (match h.P.h_failure with Some m -> note st m | None -> ());
  (match Hashtbl.find_opt st.mods name with
  | None -> Hashtbl.replace st.mods name h
  | Some h0 ->
    if h0.h_rule_bytes <> h.h_rule_bytes || h0.h_elided_static <> h.h_elided_static then
      note st (name ^ ": rule counts differ between rounds"));
  if traced then
    match Hashtbl.find_opt st.facts name with
    | None -> Hashtbl.replace st.facts name f
    | Some f0 -> if f0 <> f then note st (name ^ ": pass counts differ between rounds")

let harden_step st ~traced step name m =
  Option.map
    (fun hf ->
      record_module st ~traced name hf;
      fst hf)
    (guard st ("harden " ^ name) (fun () -> P.harden ~traced step st.store m))

let record_run st p arm r =
  let fp = fingerprint r in
  match Hashtbl.find_opt st.runs (p.P.p_name, arm) with
  | None -> Hashtbl.replace st.runs (p.p_name, arm) (r, fp)
  | Some (_, fp0) ->
    if fp0 <> fp then note st (p.p_name ^ "/" ^ P.arm_name arm ^ ": counts differ between rounds")

(* Judge a program's arms; a failed check fails the arm it convicts. *)
let judge st p results =
  let failures = P.judge p results in
  List.iter (fun (_, msg) -> if List.length st.notes < 20 then st.notes <- msg :: st.notes)
    failures;
  st.failed <- st.failed + List.length (List.sort_uniq compare (List.map fst failures))

let run_arm st step p rd arm =
  Option.map
    (fun r ->
      record_run st p arm r;
      (arm, r))
    (guard st (p.P.p_name ^ "/" ^ P.arm_name arm) (fun () -> P.run_arm step p rd arm))

(* Emit, check the emitter's verdict, and assemble the arms' inputs. *)
let prepare st step ~rules p =
  Option.map
    (fun em ->
      let rd = P.ready_of ~rules em p in
      (match P.emit_failure p rd with Some m -> note st m | None -> ());
      rd)
    (guard st (p.P.p_name ^ " emit") (fun () -> P.emit step st.store p))

(* A fuzz program as one item: harden its main, emit, run every arm,
   judge.  The libraries' rules come from [libs]. *)
let program_item st ~traced ~libs p =
  T.item st.tl p.P.p_name (fun step ->
      let main = List.find (fun (m : Jt_obj.Objfile.t) -> m.name = p.p_main) p.p_registry in
      match harden_step st ~traced step p.p_name main with
      | None -> ()
      | Some h -> (
        let d = Jt_obj.Objfile.digest main in
        let rules d' = if d' = d then h else Hashtbl.find libs d' in
        match prepare st step ~rules p with
        | None -> ()
        | Some rd ->
          let results = List.filter_map (run_arm st step p rd) (P.arms_for rd) in
          step.step "judge" (fun () -> judge st p results)))

let probe_item st addrs =
  T.item st.tl "probe" (fun step ->
      ignore (Probes.mem step addrs);
      ignore (Probes.shadow step addrs))

(* ---- workloads ---- *)

type world = {
  progs : P.prog list;
  round : traced:bool -> unit;  (** one measured round *)
}

(* Harden each module as its own item; the rules by module digest. *)
let harden_modules st tl ~traced mods =
  let rules = Hashtbl.create 64 in
  List.iter
    (fun (m : Jt_obj.Objfile.t) ->
      let name = "harden:" ^ m.name in
      T.item tl name (fun step ->
          Option.iter
            (Hashtbl.replace rules (Jt_obj.Objfile.digest m))
            (harden_step st ~traced step name m)))
    mods;
  rules

let fuzz_libs = [ Jt_workloads.Stdlibs.libc; Jt_loader.Loader.ld_so ]

(* Set-up of run-spec: build the drawn programs, harden every module of
   the registry (cold and warm, the same steps harden times) and emit the
   drawn C programs.  The measured rounds then only execute.  Hardening
   the whole registry rather than the draw's closures keeps
   modules_per_s independent of the draw: with the closures it spread
   15-25% across seeds. *)
let setup_run_spec st ~seed =
  let sheets = Inputs.spec_draw ~seed in
  let progs, mods =
    T.item st.stl "build" (fun step ->
        step.step "workloads.build" (fun () ->
            ( List.map (fun s -> P.prog_of_sheet (Jt_workloads.Specgen.build s)) sheets,
              Inputs.registry_modules () )))
  in
  let hardened = harden_modules st st.stl ~traced:st.trace mods in
  let ready =
    List.filter_map
      (fun p ->
        T.item st.stl p.P.p_name (fun step ->
            Option.map (fun rd -> (p, rd))
              (prepare st step ~rules:(Hashtbl.find hardened) p)))
      progs
  in
  let round ~traced:_ =
    List.iter
      (fun (p, rd) ->
        let results =
          List.filter_map
            (fun arm -> T.item st.tl p.P.p_name (fun step -> run_arm st step p rd arm))
            (P.arms_for rd)
        in
        judge st p results)
      ready
  in
  { progs = List.map fst ready; round }

(* Set-up of harden: build the registry and the seeded fuzz mains.  A
   measured round hardens every registry module, then takes each fuzz
   main through the whole pipeline with the libraries just hardened. *)
let setup_harden st ~seed =
  let mods, progs =
    T.item st.stl "build" (fun step ->
        step.step "workloads.build" (fun () ->
            ( Inputs.registry_modules (),
              List.map P.prog_of_case (Inputs.harden_cases ~seed) )))
  in
  let round ~traced =
    fresh_store st;
    let libs = harden_modules st st.tl ~traced mods in
    (* The programs run after the registry's garbage is collected, not
       while it is being collected. *)
    Gc.full_major ();
    List.iter (program_item st ~traced ~libs) progs
  in
  { progs; round }

(* Set-up of verdicts: build the seeded corpus and harden the shared
   libraries once.  A measured round takes every case through the whole
   pipeline and judges it against the fuzzer's expected detections. *)
let setup_verdicts st ~seed =
  let progs =
    T.item st.stl "build" (fun step ->
        step.step "workloads.build" (fun () ->
            List.map P.prog_of_case (Inputs.verdict_cases ~seed)))
  in
  let libs = harden_modules st st.stl ~traced:false fuzz_libs in
  let lib_irs =
    List.map
      (fun (m : Jt_obj.Objfile.t) ->
        let d = Jt_obj.Objfile.digest m in
        (d, m.name, Option.get (Store.peek st.store ~digest:d)))
      fuzz_libs
  in
  let round ~traced =
    (* Every round starts from a store holding only the libraries, so
       each main's cold write is really cold. *)
    fresh_store st;
    List.iter
      (fun (d, name, ir) ->
        ignore (Store.find_or_compute st.store ~digest:d ~name (fun () -> ir)))
      lib_irs;
    List.iter (program_item st ~traced ~libs) progs
  in
  { progs; round }

(* ---- metrics ---- *)

let split_key k =
  let i = String.rindex k '/' in
  (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 1))

let keys tl = List.map fst (T.samples tl)

(* Sum of the estimates of every step named [step], over all items. *)
let sum_step tl step =
  List.fold_left
    (fun s k -> if snd (split_key k) = step then s +. T.estimate tl k else s)
    0. (keys tl)

let sum_phase ~raw tl prefix =
  let items = Hashtbl.create 64 in
  let total =
    List.fold_left
      (fun s k ->
        let item, step = split_key k in
        if String.starts_with ~prefix step then begin
          Hashtbl.replace items item ();
          s +. T.estimate ~raw tl k
        end
        else s)
      0. (keys tl)
  in
  (total, Hashtbl.length items)

let arm_time ?raw tl (p : P.prog) arm phase =
  T.estimate ?raw tl (p.p_name ^ "/" ^ P.arm_name arm ^ "." ^ phase)

let arm_total ?raw tl p arm = arm_time ?raw tl p arm "boot" +. arm_time ?raw tl p arm "run"

let with_arm st progs arm =
  List.filter_map
    (fun (p : P.prog) ->
      Option.map (fun (r, _) -> (p, r)) (Hashtbl.find_opt st.runs (p.p_name, arm)))
    progs

let sum_f f l = List.fold_left (fun s x -> s +. f x) 0. l
let sum_i f l = List.fold_left (fun s x -> s + f x) 0 l

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* The timeline holding the hardening steps: set-up for run-spec. *)
let harden_tl w st = if w = Run_spec then st.stl else st.tl

(* With [~raw:true], the same metrics from raw wall times: the detail
   file carries both, so the drift pairing removed is visible. *)
let end_to_end ~raw w st progs =
  (* The median program's rate: a few fuzz programs spend far more host
     time per guest instruction than the rest, and a sum would let the
     seed's share of them set the figure. *)
  let mips arm =
    Pair.median
      (List.map
         (fun (p, (r : P.run)) ->
           float_of_int r.r_res.r_icount /. arm_total ~raw st.tl p arm /. 1e6)
         (with_arm st progs arm))
  in
  let sim_x arm =
    Pair.geomean
      (List.map
         (fun (p, (r : P.run)) ->
           let n, _ = Hashtbl.find st.runs (p.P.p_name, P.Native) in
           float_of_int r.r_res.r_cycles /. float_of_int n.r_res.r_cycles)
         (with_arm st progs arm))
  in
  let htl = harden_tl w st in
  let per_s (t, n) = float_of_int n /. t in
  let program_s (p : P.prog) =
    List.fold_left
      (fun s k -> if fst (split_key k) = p.p_name then s +. T.estimate ~raw st.tl k else s)
      0. (keys st.tl)
  in
  [
    ("setup_s", "s", Pair.median (T.round_totals ~raw st.stl ~traced:false));
    ("peak_rss_mb", "MB", peak_rss_mb ());
    ("guest_mips.native", "Minsn/s", mips P.Native);
    ("guest_mips.null", "Minsn/s", mips P.Null);
    ("guest_mips.jasan", "Minsn/s", mips P.Jasan);
    ("guest_mips.jcfi", "Minsn/s", mips P.Jcfi);
    ("guest_mips.emitted", "Minsn/s", mips P.Emitted);
    ("sim_x.jasan", "x", sim_x P.Jasan);
    ("sim_x.jcfi", "x", sim_x P.Jcfi);
    ("sim_x.emitted", "x", sim_x P.Emitted);
    ("modules_per_s.cold", "1/s", per_s (sum_phase ~raw htl "cold."));
    ("modules_per_s.warm", "1/s", per_s (sum_phase ~raw htl "warm."));
    ("verdicts_per_s", "1/s", float_of_int (List.length progs) /. sum_f program_s progs);
  ]

(* Median over steps of a step's spread over the rounds. *)
let step_spread st ~raw =
  match List.filter (fun (_, l) -> List.length l >= 2) (T.samples st.tl) with
  | [] -> 0.
  | l ->
    Pair.median
      (List.map (fun (_, s) -> Pair.spread (List.map (fun (x : T.sample) -> if raw then x.raw else x.paired) s)) l)

let per_layer w st progs ~accounted =
  let htl = harden_tl w st in
  let ms tl step = sum_step tl step *. 1e3 in
  let arm_sum arm phase =
    sum_f (fun (p, _) -> arm_time st.tl p arm phase) (with_arm st progs arm)
  in
  let stat f = float_of_int (sum_i (fun (_, (r : P.run)) -> f (Option.get r.r_stats))
                               (with_arm st progs P.Null)) in
  let counter arm names =
    float_of_int
      (sum_i
         (fun (_, (r : P.run)) ->
           sum_i (fun n -> List.assoc n r.r_counters) names)
         (with_arm st progs arm))
  in
  let hsum f = float_of_int (Hashtbl.fold (fun _ h s -> s + f h) st.mods 0) in
  let fsum f = float_of_int (Hashtbl.fold (fun _ x s -> s + f x) st.facts 0) in
  let mean_ms arm =
    let l = with_arm st progs arm in
    sum_f (fun (p, _) -> arm_total st.tl p arm) l /. float_of_int (List.length l) *. 1e3
  in
  let translated = stat (fun s -> s.st_blocks_static + s.st_blocks_dynamic) in
  let execs = stat (fun s -> s.st_block_execs) in
  let chain = stat (fun s -> s.st_chain_hits) in
  let ibl_hits = stat (fun s -> s.st_ibl_hits) and ibl_misses = stat (fun s -> s.st_ibl_misses) in
  let probe step n = T.estimate st.tl ("probe/" ^ step) /. float_of_int n *. 1e9 in
  let warm_hits = Hashtbl.fold (fun _ (h : P.hardened) s -> if h.h_warm_hit then s + 1 else s) st.mods 0 in
  let overhead =
    (Pair.median (T.round_totals st.tl ~traced:true)
    -. Pair.median (T.round_totals st.tl ~traced:false)) *. 1e3
  in
  let kernels = T.kernels st.tl in
  [
    ("mem.read32_ns", "ns", probe "mem.read32" Probes.accesses);
    ("mem.write32_ns", "ns", probe "mem.write32" Probes.accesses);
    ("mem.read8_ns", "ns", probe "mem.read8" Probes.accesses);
    ("vm.run_s", "s", arm_sum P.Native "run");
    ("loader.boot_ms", "ms", arm_sum P.Native "boot" *. 1e3);
    ("loader.module_lookups", "count", counter P.Native [ "module_lookups" ]);
    ("loader.lookup_probes", "count", counter P.Native [ "lookup_probes" ]);
    ("dbt.overhead_s", "s", arm_sum P.Null "run" -. arm_sum P.Native "run");
    ("dbt.blocks_translated", "count", translated);
    ("dbt.block_execs", "count", execs);
    ("dbt.translated_share", "ratio", translated /. execs);
    ("dbt.dispatch_entries", "count", stat (fun s -> s.st_dispatch_entries));
    ("dbt.chain_hits", "count", chain);
    ("dbt.chain_hit_rate", "ratio", chain /. execs);
    ("dbt.ibl_hits", "count", ibl_hits);
    ("dbt.ibl_misses", "count", ibl_misses);
    ("dbt.ibl_hit_rate", "ratio", ibl_hits /. (ibl_hits +. ibl_misses));
    ("dbt.traces_built", "count", stat (fun s -> s.st_traces_built));
    ("jasan.check_s", "s", arm_sum P.Jasan "run" -. arm_sum P.Null "run");
    ("jasan.checks_run", "count", counter P.Jasan [ "san_checks" ]);
    ("jasan.elided_static", "count", hsum (fun h -> h.h_elided_static));
    ( "jasan.elided_trace", "count",
      counter P.Jasan
        [ "san_trace_elide_dom"; "san_trace_elide_canary"; "san_trace_elide_streak";
          "san_trace_elide_ind" ] );
    ("shadow.poison_ns", "ns", probe "shadow.poison" Probes.shadow_ops);
    ("shadow.first_poisoned_ns", "ns", probe "shadow.first_poisoned" Probes.shadow_ops);
    ("jcfi.check_s", "s", arm_sum P.Jcfi "run" -. arm_sum P.Null "run");
    ("emit.rewrite_ms", "ms", ms htl "emit.rewrite");
    ("emit.run_s", "s", arm_sum P.Emitted "run");
    ("emit.sites", "count", float_of_int (sum_i (fun (_, (r : P.run)) -> r.r_sites) (with_arm st progs P.Emitted)));
    ("emit.pins", "count", float_of_int (sum_i (fun (_, (r : P.run)) -> r.r_pins) (with_arm st progs P.Emitted)));
    ("disasm.ms", "ms", ms htl "pass.disasm");
    ("cfg.build_ms", "ms", ms htl "pass.cfg");
    ("cfg.domtree_ms", "ms", ms htl "pass.domtree");
    ("analysis.liveness_ms", "ms", ms htl "pass.liveness");
    ("analysis.vsa_ms", "ms", ms htl "pass.vsa");
    ("analysis.scev_ms", "ms", ms htl "pass.scev");
    ("analysis.cpa_ms", "ms", ms htl "pass.cpa");
    ("analysis.defuse_ms", "ms", ms htl "pass.defuse");
    ("analysis.canary_ms", "ms", ms htl "pass.canary");
    ("analysis.stackinfo_ms", "ms", ms htl "pass.stackinfo");
    ("core.compute_ms", "ms", ms htl "cold.compute");
    ("cfg.insns", "count", fsum (fun f -> f.P.f_insns));
    ("cfg.blocks", "count", fsum (fun f -> f.P.f_blocks));
    ("analysis.vsa_iterations", "count", fsum (fun f -> f.P.f_vsa_iterations));
    ("jasan.rulegen_ms", "ms", ms htl "cold.jasan_rules");
    ("jcfi.rulegen_ms", "ms", ms htl "cold.jcfi_rules");
    ("rules.encode_ms", "ms", ms htl "cold.rules_encode");
    ("rules.bytes", "count", hsum (fun h -> h.h_rule_bytes));
    ("ir.encode_ms", "ms", ms htl "ir.encode");
    ("ir.decode_ms", "ms", ms htl "ir.decode");
    ("ir.bytes", "count", fsum (fun f -> f.P.f_ir_bytes));
    ("core.of_ir_ms", "ms", ms htl "warm.of_ir");
    ("rules.decode_ms", "ms", ms htl "rules.decode");
    ("ir.store_hit_rate", "ratio", float_of_int warm_hits /. float_of_int (Hashtbl.length st.mods));
    ("workloads.build_ms", "ms", ms st.stl "workloads.build");
    ("verdict.native_ms", "ms", mean_ms P.Native);
    ("verdict.hybrid_ms", "ms", mean_ms P.Jasan);
    ("verdict.emitted_ms", "ms", mean_ms P.Emitted);
    ("trace.overhead_ms", "ms", overhead);
    ("trace.accounted_pct", "%", accounted *. 100.);
    ("kernel.ms", "ms", Pair.median kernels *. 1e3);
    ("kernel.spread_pct", "%", Pair.spread kernels *. 100.);
    ("pair.raw_spread_pct", "%", step_spread st ~raw:true *. 100.);
    ("pair.paired_spread_pct", "%", step_spread st ~raw:false *. 100.);
  ]

(* ---- output ---- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
       metrics)

let write_detail path st ~seed ~workload ~metrics ~raw_metrics =
  let oc = open_out path in
  let floats l = String.concat "," (List.map json_float l) in
  Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\"nominal_kernel_s\":%s,\n" workload seed
    (json_float Kernel.nominal_s);
  let ks = T.kernels st.tl in
  Printf.fprintf oc "\"kernel\":{\"median_s\":%s,\"spread\":%s,\"count\":%d},\n"
    (json_float (Pair.median ks)) (json_float (Pair.spread ks)) (List.length ks);
  let section name tl =
    Printf.fprintf oc "%S:[\n" name;
    List.iteri
      (fun i (key, l) ->
        Printf.fprintf oc
          "%s{\"key\":%S,\"raw_s\":[%s],\"kernel_before_s\":[%s],\"kernel_after_s\":[%s],\"paired_s\":[%s],\"estimate_s\":%s}\n"
          (if i = 0 then "" else ",")
          key
          (floats (List.map (fun (s : T.sample) -> s.raw) l))
          (floats (List.map (fun (s : T.sample) -> s.k_before) l))
          (floats (List.map (fun (s : T.sample) -> s.k_after) l))
          (floats (List.map (fun (s : T.sample) -> s.paired) l))
          (json_float (T.estimate tl key)))
      (T.samples tl);
    output_string oc "]"
  in
  section "setup" st.stl;
  output_string oc ",\n";
  section "measured" st.tl;
  Printf.fprintf oc ",\n\"metrics\":{%s},\n\"raw_metrics\":{%s},\n\"failures\":[%s]}\n"
    (metrics_json metrics) (metrics_json raw_metrics)
    (String.concat "," (List.map (Printf.sprintf "%S") (List.rev st.notes)));
  close_out oc

(* ---- driver ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run ~workload ~seed ~seconds ~trace =
  let w = List.assoc workload workloads in
  mkdir_p out_dir;
  let store_root = Filename.concat out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  let st =
    {
      trace;
      tl = T.create ();
      stl = T.create ();
      store_root;
      store = Store.create ~capacity:0 ~dir:store_root ();
      stores = [];
      attempted = 0;
      failed = 0;
      notes = [];
      runs = Hashtbl.create 64;
      mods = Hashtbl.create 64;
      facts = Hashtbl.create 64;
    }
  in
  let setup =
    match w with
    | Run_spec -> setup_run_spec
    | Harden -> setup_harden
    | Verdicts -> setup_verdicts
  in
  (* Each repetition sets up from scratch; the measured rounds use the
     last one. *)
  let world = ref None in
  for _ = 1 to setup_reps do
    fresh_store st;
    Hashtbl.reset st.mods;
    Hashtbl.reset st.facts;
    world := Some (setup st ~seed);
    T.new_round st.stl
  done;
  let world = Option.get !world in
  let addrs = Probes.stream ~seed in
  let deadline = Kernel.now () +. seconds in
  let rec rounds n last =
    if n < 2 || Kernel.now () +. last <= deadline then begin
      let traced = trace && n mod 2 = 1 in
      T.set_tracing st.tl traced;
      let t0 = Kernel.now () in
      if trace then probe_item st addrs;
      world.round ~traced;
      T.new_round st.tl;
      rounds (n + 1) (Kernel.now () -. t0)
    end
  in
  rounds 0 0.;
  (* A run-spec item is one arm of one program: its boot and run steps
     must cover 95% of its wall time.  Fuzz items are tens of steps of well
     under a millisecond, where one host hiccup between two steps can
     exceed 5%; they are reported, not checked. *)
  let accounted = if trace then T.spans_accounted st.tl ~min_wall:0.02 else 1. in
  if w = Run_spec && accounted < 0.95 then
    note st (Printf.sprintf "steps cover only %.1f%% of an item's wall time" (accounted *. 100.));
  List.iter
    (fun s ->
      ignore (Store.clear s);
      Sys.rmdir (Store.dir s))
    st.stores;
  Sys.rmdir store_root;
  let metrics, raw_metrics =
    if trace then (per_layer w st world.progs ~accounted, [])
    else (end_to_end ~raw:false w st world.progs, end_to_end ~raw:true w st world.progs)
  in
  let name = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  write_detail (Filename.concat out_dir (name ^ ".json")) st ~seed ~workload ~metrics ~raw_metrics;
  if trace then
    T.write_spans st.tl
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed));
  let kernels = T.kernels st.tl in
  Printf.printf
    "%s: %d rounds, %d programs; kernel median %.3f ms (spread %.1f%%); per-step spread over rounds raw %.1f%%, paired %.1f%%\n"
    name (T.rounds st.tl) (List.length world.progs)
    (Pair.median kernels *. 1e3) (Pair.spread kernels *. 100.)
    (step_spread st ~raw:true *. 100.) (step_spread st ~raw:false *. 100.);
  List.iter (fun m -> Printf.eprintf "perfbench: FAILED %s\n" m) (List.rev st.notes);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (st.failed = 0) st.attempted st.failed (metrics_json metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " run-spec | harden | verdicts");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline "perfbench: unknown --workload (run-spec | harden | verdicts)";
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
