(* One benchmark run: set up the workload's instances from the seed,
   solve them in repeated passes for the requested time, check every
   verdict, and reduce the per-instance timings to the named metrics. *)

let now = Pipeline.now

(* name, unit: the end-to-end metrics of an untraced run *)
let end_to_end =
  [
    ("setup_s", "s");
    ("solve_total_s", "s");
    ("solve_geomean_s", "s");
    ("solve_p50_s", "s");
    ("solve_max_s", "s");
    ("decided_frac", "ratio");
    ("peak_heap_mb", "MB");
  ]

(* name, unit: the per-layer metrics of a traced run *)
let per_layer =
  [
    ("parse.s", "s");
    ("parse.alloc_mw", "Mwords");
    ("analysis.s", "s");
    ("analysis.alloc_mw", "Mwords");
    ("analysis.edges_pruned", "count");
    ("preprocess.s", "s");
    ("preprocess.alloc_mw", "Mwords");
    ("preprocess.gates", "count");
    ("inproc.self_s", "s");
    ("inproc.clause_reduction_ratio", "ratio");
    ("core.s", "s");
    ("core.alloc_mw", "Mwords");
    ("core.peak_nodes", "count");
    ("elim.expand.self_s", "s");
    ("elim.universal", "count");
    ("elim.select.self_s", "s");
    ("maxsat.iterations", "count");
    ("qbf.elim.self_s", "s");
    ("qbf.elim.quantifications", "count");
    ("aig.nodes_alloc", "count");
    ("aig.strash_hit_ratio", "ratio");
    ("fraig.reduce.self_s", "s");
    ("fraig.sat_checks", "count");
    ("fraig.merge_ratio", "ratio");
    ("sat.propagations", "count");
    ("sat.conflicts", "count");
    ("sat.solves", "count");
    ("cert.emit.self_s", "s");
    ("cert.emit.alloc_mw", "Mwords");
    ("cert.check.s", "s");
    ("certcheck.s", "s");
    ("certcheck.verified_frac", "ratio");
    ("trace.overhead_frac", "ratio");
    ("attribution.uncovered_frac", "ratio");
    ("counters.nondeterministic", "count");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** wrong answers, refuted certificates, exceptions *)
}

(* progress lines on stderr; the self-tests turn them off *)
let quiet = ref false
let log fmt = Printf.ksprintf (fun s -> if not !quiet then prerr_endline ("perfbench: " ^ s)) fmt

let wrong tally msg =
  tally.failed <- tally.failed + 1;
  tally.wrong <- msg :: tally.wrong;
  log "FAIL %s" msg

let median = Speed.median

let sum = List.fold_left ( +. ) 0.0

(* the mean of the lower half (the faster half of the passes, for
   times): interference only adds time, and a single fastest pass would
   pick up a probe's own noise *)
let low_mean l =
  let a = Array.of_list (List.sort Float.compare l) in
  let k = max 1 (Array.length a / 2) in
  sum (Array.to_list (Array.sub a 0 k)) /. float_of_int k

(* ------------------------------------------------------------ setup *)

(* Generate the instance texts repeatedly, in batches of at least
   0.2 s, each batch next to a host speed probe: at least six batches
   and at least 1.5 seconds in all. Every repetition must fingerprint
   identically. Set-up time is the [low_mean] of the batches' times per
   generation, at the reference speed. *)
let setup (w : Workload.t) ~seed =
  let t0 = now () in
  let insts = Workload.instances w ~seed in
  let once = now () -. t0 in
  let prints = List.map (fun i -> i.Workload.fingerprint) insts in
  let batch = max 1 (int_of_float (Float.ceil (0.2 /. Float.max once 1e-6))) in
  let rec samples acc spent =
    if List.length acc >= 6 && spent >= 1.5 then acc
    else begin
      Gc.full_major ();
      let (), window =
        Speed.around (fun () ->
            for _ = 1 to batch do
              let again = Workload.instances w ~seed in
              if List.map (fun i -> i.Workload.fingerprint) again <> prints then
                failwith "seed determinism: the same seed produced different instance texts"
            done)
      in
      let s = window.Speed.stop -. window.Speed.start in
      log "setup batch of %d: %.4fs" batch s;
      samples ((s /. float_of_int batch, window) :: acc) (spent +. s)
    end
  in
  (insts, low_mean (List.map (fun (s, w) -> Speed.scale w s) (samples [] 0.0)))

(* certcheck exit codes: 0 verified, 3 uncertified (claims nothing);
   anything else is a refuted or malformed certificate *)
type certcheck = { mutable verified : int; mutable seconds : float }

(* Repeat [pass] (given the pass number, from 0) while another pass is
   expected to end within [seconds]; at least [min] passes run. The
   one-off certificate checks of a pass ([cc.seconds]) do not count
   toward the estimate. *)
let repeat ~cc ~seconds ~min pass =
  let t0 = now () in
  let rec go acc n =
    let t = now () and checks = cc.seconds in
    let acc = pass n :: acc in
    let last = now () -. t -. (cc.seconds -. checks) in
    if n + 1 < min || now () -. t0 +. last <= seconds then go acc (n + 1) else List.rev acc
  in
  go [] 0

let judge tally (inst : Workload.instance) outcome =
  tally.attempted <- tally.attempted + 1;
  match outcome with
  | Pipeline.Timed_out ->
      tally.failed <- tally.failed + 1;
      log "timeout %s" inst.Workload.id;
      false
  | Pipeline.Decided v when v = inst.Workload.expect -> true
  | Pipeline.Decided v ->
      wrong tally
        (Printf.sprintf "%s: %s, expected %s" inst.Workload.id (Workload.verdict_name v)
           (Workload.verdict_name inst.Workload.expect));
      false

let guard tally (inst : Workload.instance) f =
  try f ()
  with e ->
    tally.attempted <- tally.attempted + 1;
    wrong tally (Printf.sprintf "%s: exception %s" inst.Workload.id (Printexc.to_string e));
    None

let run_certcheck tally cc ~exe inst cert =
  let code, s = Pipeline.certcheck ~exe inst cert in
  log "certcheck %s: exit %d in %.3fs" inst.Workload.id code s;
  cc.seconds <- cc.seconds +. s;
  match code with
  | 0 -> cc.verified <- cc.verified + 1
  | 3 -> ()
  | c -> wrong tally (Printf.sprintf "%s: certcheck exit %d" inst.Workload.id c)

(* one untraced pass: per instance, the time to a correct verdict and
   the window of its solve process *)
let untraced_pass ~certcheck tally w insts =
  List.map
    (fun inst ->
      guard tally inst (fun () ->
          let r, window = Pipeline.untraced w inst in
          log "solve %s %.4fs" inst.Workload.id r.Pipeline.seconds;
          if not (judge tally inst r.Pipeline.outcome) then None
          else begin
            (match (certcheck, r.Pipeline.cert) with
            | Some (cc, exe), Some cert -> run_certcheck tally cc ~exe inst cert
            | _ -> ());
            Some (r.Pipeline.seconds, window)
          end))
    insts

(* one instance of a traced pass: the times of the untraced and the
   traced whole solve, and the split, each with its window *)
type traced = {
  untraced : float * Speed.window;
  traced : float * Speed.window;
  sp : Pipeline.split;
  window : Speed.window;
  counters : (string * float) list list;
      (** the counters that must repeat, of the untraced, the traced and
          the split run *)
}

(* one traced pass; the certificate checks (in-process and certcheck)
   run when [certcheck] is given, which is on the first pass only *)
let traced_pass ~certcheck tally w insts =
  List.map
    (fun inst ->
      guard tally inst (fun () ->
          let u, u_window = Pipeline.untraced w inst in
          let t, t_window = Pipeline.traced w inst in
          let sp, window = Pipeline.split ~check_cert:(certcheck <> None) w inst in
          log "solve %s: untraced %.4fs, traced %.4fs, split %.4fs" inst.Workload.id
            u.Pipeline.seconds t.Pipeline.seconds (window.Speed.stop -. window.Speed.start);
          (* one judgement per instance: the first outcome that is not
             the expected verdict, if any *)
          let expected = Pipeline.Decided inst.Workload.expect in
          let outcome =
            List.find_opt (fun o -> o <> expected)
              [ u.Pipeline.outcome; t.Pipeline.outcome; sp.Pipeline.verdict ]
          in
          if not (judge tally inst (Option.value ~default:expected outcome)) then None
          else begin
            Option.iter (fun m -> wrong tally (inst.Workload.id ^ ": " ^ m)) sp.Pipeline.cert_error;
            if sp.Pipeline.dropped > 0 then
              log "%s: %d trace events dropped" inst.Workload.id sp.Pipeline.dropped;
            (match (certcheck, sp.Pipeline.cert) with
            | Some (cc, exe), Some cert -> run_certcheck tally cc ~exe inst cert
            | _ -> ());
            let counters =
              List.map Pipeline.deterministic_counters
                [ u.Pipeline.run_counters; t.Pipeline.run_counters; sp.Pipeline.counters ]
            in
            Some
              {
                untraced = (u.Pipeline.seconds, u_window);
                traced = (t.Pipeline.seconds, t_window);
                sp;
                window;
                counters;
              }
          end))
    insts

(* transpose passes (lists over instances) into per-instance lists of
   the values that were obtained *)
let per_instance passes n =
  List.init n (fun i -> List.filter_map (fun pass -> List.nth pass i) passes)

(* --------------------------------------------------------- metrics *)

(* per instance, the median top major heap of its solve processes; the
   mean of these. The heap grows in steps, so one instance's peak can jump
   between two sizes from seed to seed; the mean over the grid is steadier
   than the largest. *)
let heap_mb () =
  let peaks =
    Hashtbl.fold
      (fun id tops acc ->
        log "heap %s: %s words" id (String.concat " " (List.map string_of_int tops));
        median (List.map float_of_int tops) :: acc)
      Pipeline.heap_peaks []
  in
  sum peaks /. float_of_int (max 1 (List.length peaks)) *. float_of_int (Sys.word_size / 8) /. 1e6

(* Each instance's time is the mean of its faster half of passes, at
   the reference speed: the solve is deterministic work. *)
let solve_metrics ~insts ~tally ~setup_s times =
  List.iter2
    (fun (i : Workload.instance) ts ->
      log "%-22s %s" i.Workload.id
        (String.concat " "
           (List.map (fun (s, w) -> Printf.sprintf "%.4f@%.5f" s (Speed.speed w)) ts)))
    insts times;
  let decided =
    List.filter_map
      (function
        | [] -> None | ts -> Some (low_mean (List.map (fun (s, w) -> Speed.scale w s) ts)))
      times
  in
  let n = List.length decided in
  log "%d of %d instances decided; p50 over %d per-instance times" n
    (List.length insts) n;
  let geomean = if n = 0 then 0.0 else exp (sum (List.map Float.log decided) /. float_of_int n) in
  [
    ("setup_s", setup_s);
    ("solve_total_s", sum decided);
    ("solve_geomean_s", geomean);
    ("solve_p50_s", median decided);
    ("solve_max_s", List.fold_left Float.max 0.0 decided);
    ( "decided_frac",
      float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted) );
    ("peak_heap_mb", heap_mb ());
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per instance, each time is the median over the traced passes, at the
   reference speed; counters, which must repeat exactly, and the one-off
   certificate checks come from the first traced pass. *)
let layer_metrics ~insts ~traced ~(cc : certcheck) =
  let rows =
    List.combine insts traced
    |> List.filter_map (function _, [] -> None | inst, samples -> Some (inst, samples))
  in
  let med f samples = median (List.map f samples) in
  let total f = sum (List.map (fun (_, samples) -> f samples) rows) in
  let at_ref x s = Speed.scale x.window s in
  let sc (s, w) = Speed.scale w s in
  let cost f =
    ( total (med (fun x -> at_ref x (f x.sp).Pipeline.s)),
      total (med (fun x -> (f x.sp).Pipeline.mw)) )
  in
  let first f samples = f (List.hd samples).sp in
  let counter n = total (first (fun sp -> Pipeline.counter sp n)) in
  let self n = total (med (fun x -> at_ref x (Pipeline.span_self x.sp n))) in
  let covered x =
    let sp = x.sp in
    at_ref x
      (sp.Pipeline.parse.Pipeline.s +. sp.Pipeline.analysis.Pipeline.s
     +. sp.Pipeline.preprocess.Pipeline.s +. sp.Pipeline.core.Pipeline.s
     +. sp.Pipeline.cert_emit.Pipeline.s)
  in
  List.iter
    (fun (inst, samples) ->
      let m f = med (fun x -> at_ref x (f x.sp).Pipeline.s) samples in
      log
        "%-22s untraced %.4fs traced %.4fs | parse %.4f analysis %.4f preprocess %.4f core \
         %.4f cert %.4f | qbf.elim %.4f fraig %.4f | props %.0f"
        inst.Workload.id
        (med (fun x -> sc x.untraced) samples)
        (med (fun x -> sc x.traced) samples)
        (m (fun sp -> sp.Pipeline.parse))
        (m (fun sp -> sp.Pipeline.analysis))
        (m (fun sp -> sp.Pipeline.preprocess))
        (m (fun sp -> sp.Pipeline.core))
        (m (fun sp -> sp.Pipeline.cert_emit))
        (med (fun x -> at_ref x (Pipeline.span_self x.sp "qbf.elim")) samples)
        (med (fun x -> at_ref x (Pipeline.span_self x.sp "fraig.reduce")) samples)
        (first (fun sp -> Pipeline.counter sp "sat.propagations") samples))
    rows;
  (* counter determinism: every run of an instance must agree *)
  let nondet =
    List.filter
      (fun (inst, samples) ->
        match List.concat_map (fun x -> x.counters) samples with
        | [] -> false
        | c0 :: rest ->
            let differs = List.exists (fun c -> c <> c0) rest in
            if differs then log "counters differ between runs of %s" inst.Workload.id;
            differs)
      rows
  in
  let untraced_total = total (med (fun x -> sc x.untraced)) in
  let parse_s, parse_mw = cost (fun sp -> sp.Pipeline.parse) in
  let analysis_s, analysis_mw = cost (fun sp -> sp.Pipeline.analysis) in
  let pre_s, pre_mw = cost (fun sp -> sp.Pipeline.preprocess) in
  let core_s, core_mw = cost (fun sp -> sp.Pipeline.core) in
  let _, emit_mw = cost (fun sp -> sp.Pipeline.cert_emit) in
  (* attribution: the split layers must account for the untraced time *)
  let uncovered = 1.0 -. ratio (total (med covered)) untraced_total in
  let metrics =
    [
      ("parse.s", parse_s);
      ("parse.alloc_mw", parse_mw);
      ("analysis.s", analysis_s);
      ("analysis.alloc_mw", analysis_mw);
      ("analysis.edges_pruned", counter "analysis.edges_pruned");
      ("preprocess.s", pre_s);
      ("preprocess.alloc_mw", pre_mw);
      ("preprocess.gates", counter "preprocess.gates");
      ("inproc.self_s", self "inproc.run");
      ( "inproc.clause_reduction_ratio",
        ratio (counter "inproc.clauses_removed")
          (total (first (fun sp -> float_of_int sp.Pipeline.clauses))) );
      ("core.s", core_s);
      ("core.alloc_mw", core_mw);
      ( "core.peak_nodes",
        List.fold_left
          (fun a (_, samples) -> Float.max a (float_of_int (List.hd samples).sp.Pipeline.peak_nodes))
          0.0 rows );
      ("elim.expand.self_s", self "elim.expand");
      ("elim.universal", counter "elim.universal");
      ("elim.select.self_s", self "elim.select");
      ("maxsat.iterations", counter "maxsat.iterations");
      ("qbf.elim.self_s", self "qbf.elim");
      ("qbf.elim.quantifications", counter "qbf.elim.quantifications");
      ("aig.nodes_alloc", counter "aig.nodes_alloc");
      ( "aig.strash_hit_ratio",
        ratio (counter "aig.strash_hits")
          (counter "aig.strash_hits" +. counter "aig.strash_misses") );
      ("fraig.reduce.self_s", self "fraig.reduce");
      ("fraig.sat_checks", counter "fraig.sat_checks");
      ("fraig.merge_ratio", ratio (counter "fraig.merges") (counter "fraig.sat_checks"));
      ("sat.propagations", counter "sat.propagations");
      ("sat.conflicts", counter "sat.conflicts");
      ("sat.solves", counter "sat.solves");
      ("cert.emit.self_s", self "cert.emit");
      ("cert.emit.alloc_mw", emit_mw);
      ( "cert.check.s",
        total (fun samples ->
            let x = List.hd samples in
            at_ref x x.sp.Pipeline.cert_check.Pipeline.s) );
      ("certcheck.s", cc.seconds);
      ( "certcheck.verified_frac",
        ratio (float_of_int cc.verified) (float_of_int (List.length insts)) );
      ("trace.overhead_frac", ratio (total (med (fun x -> sc x.traced))) untraced_total -. 1.0);
      ("attribution.uncovered_frac", uncovered);
      ("counters.nondeterministic", float_of_int (List.length nondet));
    ]
  in
  (metrics, uncovered)

(* ------------------------------------------------------------- run *)

let with_units names metrics =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | Some v -> (name, v, unit)
      | None -> invalid_arg ("metric not computed: " ^ name))
    names

let run ~trace ~seconds ~seed ?certcheck (w : Workload.t) =
  let insts, setup_s = setup w ~seed in
  (* the set-up probes ran in a busy process, the solve probes in one
     that waits on its children: keep them apart *)
  Speed.forget ();
  List.iter
    (fun i ->
      log "instance %s expect=%s bytes=%d md5=%s" i.Workload.id
        (Workload.verdict_name i.Workload.expect)
        (String.length i.Workload.text) i.Workload.fingerprint)
    insts;
  let tally = { attempted = 0; failed = 0; wrong = [] } in
  let cc = { verified = 0; seconds = 0.0 } in
  let certcheck =
    match certcheck with Some exe when w.Workload.certify -> Some (cc, exe) | _ -> None
  in
  let n = List.length insts in
  (* certificates are deterministic: check them on the first pass *)
  let first_only i = if i = 0 then certcheck else None in
  let metrics =
    if not trace then begin
      let passes =
        repeat ~cc ~seconds ~min:1 (fun i -> untraced_pass ~certcheck:(first_only i) tally w insts)
      in
      log "%d untraced passes" (List.length passes);
      with_units end_to_end (solve_metrics ~insts ~tally ~setup_s (per_instance passes n))
    end
    else begin
      let traced =
        repeat ~cc ~seconds ~min:1 (fun i -> traced_pass ~certcheck:(first_only i) tally w insts)
      in
      log "%d traced passes" (List.length traced);
      let metrics, uncovered = layer_metrics ~insts ~traced:(per_instance traced n) ~cc in
      (* a split that measures a different program than the untraced
         solve cannot account for its time *)
      if Float.abs uncovered > 0.5 then
        wrong tally
          (Printf.sprintf "attribution: %.0f%% of the untraced time uncovered"
             (100.0 *. uncovered));
      with_units per_layer metrics
    end
  in
  if certcheck <> None then
    log "certcheck: %d of %d certificates verified in %.2fs" cc.verified n cc.seconds;
  { correct = tally.wrong = []; attempted = tally.attempted; failed = tally.failed; metrics }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
