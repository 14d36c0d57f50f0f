open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

type verdict = Sat | Unsat
type mode = Elimination | Expand_all
type qbf_backend = Elim_backend | Search_backend

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;
  use_maxsat : bool;
  use_fraig : bool;
  fraig_threshold : int;
  use_sat_probe : bool;
  node_limit : int option;
  qbf : Qbf.Solver.config;
  qbf_backend : qbf_backend;
  chaos : Chaos.t;
  restart_on_memout : bool;
  check_level : Check.level;
  dep_scheme : Analysis.Scheme.t;
}

let default_config =
  {
    (* HQS_INPROC follows the HQS_CHECK contract: the CLI reports a
       malformed value; library users get the engine default *)
    preprocess =
      {
        Dqbf.Preprocess.default_config with
        Dqbf.Preprocess.inproc =
          (match Inproc.mode_of_env () with Ok m -> m | Error _ -> Inproc.default_mode);
      };
    mode = Elimination;
    use_unitpure = true;
    use_thm2 = true;
    use_maxsat = true;
    use_fraig = true;
    fraig_threshold = 50000;
    use_sat_probe = false;
    node_limit = None;
    qbf = Qbf.Solver.default_config;
    qbf_backend = Elim_backend;
    chaos = Chaos.off;
    restart_on_memout = true;
    (* a malformed HQS_CHECK is reported by the CLI; library users who
       bypass it get the safe default *)
    check_level = (match Check.level_of_env () with Ok l -> l | Error _ -> Check.Off);
    (* same contract as HQS_CHECK: a malformed HQS_DEP_SCHEME is reported
       by the CLI; library users get the default scheme *)
    dep_scheme =
      (match Analysis.Scheme.of_env () with Ok s -> s | Error _ -> Analysis.Scheme.default);
  }

(* the bounded-restart config: keep the same resource limits but trade
   speed for compactness — sweep aggressively and use the search back
   end, which does not grow the AIG *)
let degraded_config config =
  {
    config with
    use_fraig = true;
    fraig_threshold = min config.fraig_threshold 1000;
    qbf_backend = Search_backend;
  }

exception Done of verdict

let sat_probe ~budget f =
  (* if the matrix alone is unsatisfiable, no Skolem functions exist *)
  let solver = Sat.Solver.create () in
  let enc = Aig.Cnf_enc.create solver in
  let out = Aig.Cnf_enc.sat_lit (F.man f) enc (F.matrix f) in
  Sat.Solver.add_clause solver [ out ];
  match Sat.Solver.solve ~budget ~conflict_limit:20000 solver with
  | Sat.Solver.Unsat -> raise (Done Unsat)
  | Sat.Solver.Sat | Sat.Solver.Unknown -> ()

let rollback_opt trail mark =
  match (trail, mark) with
  | Some trail, Some m -> Dqbf.Model_trail.rollback trail m
  | _ -> ()

let g_heap = Obs.Metrics.gauge "gc.heap_words.peak"

(* the solve's own statistics: the registry is their only store, and
   each public entry point reads them back from its metric scope *)
let g_peak_nodes = Obs.Metrics.gauge "hqs.peak_nodes"
let g_maxsat_set = Obs.Metrics.gauge "hqs.maxsat_set"
let c_restarts = Obs.Metrics.counter "hqs.restarts"
let c_unitpure_elims = Obs.Metrics.counter "hqs.unitpure_elims"
let h_maxsat_time = Obs.Metrics.histogram "hqs.maxsat_time_s"
let h_unitpure_time = Obs.Metrics.histogram "hqs.unitpure_time_s"
let h_qbf_time = Obs.Metrics.histogram "hqs.qbf_time_s"
let h_total_time = Obs.Metrics.histogram "hqs.total_time_s"

let solve_impl ~(config : config) ~budget ~trail ~ledger ~restarts f0 =
  Obs.Span.with_ "hqs.solve"
    ~attrs:[ ("restarts", Obs.Int restarts); ("vars", Obs.Int (F.next_var f0)) ]
  @@ fun () ->
  let f = F.copy f0 in
  M.set_node_limit (F.man f) config.node_limit;
  (* on a degraded restart, squeeze the matrix before eliminating: the
     blowup that caused the memout is often pure functional redundancy *)
  if restarts > 0 && config.use_fraig && M.cone_size (F.man f) (F.matrix f) > 64 then
    Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"fraig.initial" ~action:"skip"
      ~sub_seconds:5.0 ~sub_frac:0.25
      ~primary:(fun b ->
        let man, roots = Aig.Fraig.reduce ~budget:b (F.man f) [ F.matrix f ] in
        F.replace_man f man (List.hd roots))
      ~fallback:(fun () -> ())
      ();
  let queue = ref [] in
  let last_size = ref (M.num_nodes (F.man f)) in
  let fraig_floor = ref 0 in
  let note_size () =
    Obs.Metrics.set_max g_peak_nodes (float_of_int (M.num_nodes (F.man f)));
    Obs.Metrics.set_max g_heap (float_of_int (Budget.heap_words ()))
  in
  (* the soundness gate at each stage boundary (free when check_level=Off) *)
  let audit ?queue stage = Check.audit_stage ~level:config.check_level ?queue stage f in
  let compact_or_fraig () =
    note_size ();
    let cone = M.cone_size (F.man f) (F.matrix f) in
    if config.use_fraig && cone > config.fraig_threshold && cone > 2 * !fraig_floor then begin
      (* time-boxed sweep: a local timeout or node blowup degrades to a
         plain compaction instead of aborting the solve *)
      Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"fraig.sweep" ~action:"compact"
        ~sub_seconds:2.0 ~sub_frac:0.2
        ~primary:(fun b ->
          let man, roots = Aig.Fraig.reduce ~budget:b (F.man f) [ F.matrix f ] in
          F.replace_man f man (List.hd roots);
          last_size := M.num_nodes man;
          fraig_floor := M.cone_size man (F.matrix f))
        ~fallback:(fun () ->
          (* give up on sweeping this cone until it doubles again *)
          fraig_floor := cone;
          Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
          @@ fun () ->
          let man, roots = M.compact (F.man f) [ F.matrix f ] in
          F.replace_man f man (List.hd roots);
          last_size := M.num_nodes man)
        ();
      audit Check.Post_fraig
    end
    else if M.num_nodes (F.man f) > (2 * !last_size) + 1024 then begin
      (Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
      @@ fun () ->
      let man, roots = M.compact (F.man f) [ F.matrix f ] in
      F.replace_man f man (List.hd roots);
      last_size := M.num_nodes man);
      audit Check.Post_fraig
    end
  in
  let first_selection = ref true in
  let refill_queue () =
    let t0 = Budget.now () in
    Obs.Span.with_ "elim.select"
      ~attrs:[ ("universals", Obs.Int (F.num_universals f)); ("maxsat", Obs.Bool config.use_maxsat) ]
    @@ fun () ->
    let set =
      match config.mode with
      | Expand_all -> Bitset.to_list (F.universals f)
      | Elimination ->
          if config.use_maxsat then
            Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"maxsat.minset"
              ~action:"greedy" ~sub_seconds:5.0 ~sub_frac:0.25
              ~primary:(fun b -> Dqbf.Elimset.minimum_set ~budget:b f)
              ~fallback:(fun () -> Dqbf.Elimset.greedy_all f)
              ()
          else Dqbf.Elimset.greedy_all f
    in
    Obs.Metrics.observe h_maxsat_time (Budget.now () -. t0);
    (* the first elimination set of this attempt: a degraded restart
       overwrites the failed attempt's *)
    if !first_selection then begin
      first_selection := false;
      Obs.Metrics.set g_maxsat_set (float_of_int (List.length set))
    end;
    queue := Dqbf.Elimset.ordered_queue f set
  in
  let verdict =
    try
      if config.use_sat_probe then sat_probe ~budget f;
      let continue_ = ref true in
      while !continue_ do
        Budget.check budget;
        note_size ();
        if M.is_true (F.matrix f) then raise (Done Sat);
        if M.is_false (F.matrix f) then raise (Done Unsat);
        Dqbf.Elim.prune_prefix ?trail f;
        (* unit / pure elimination (Theorems 5-6) *)
        let eliminated_up =
          if not config.use_unitpure then false
          else begin
            let t0 = Budget.now () in
            let r = Obs.Span.with_ "elim.unitpure" (fun () -> Dqbf.Elim.unit_pure_round ?trail f) in
            Obs.Metrics.observe h_unitpure_time (Budget.now () -. t0);
            match r with
            | `Unsat -> raise (Done Unsat)
            | `Eliminated n ->
                Obs.Metrics.incr ~by:n c_unitpure_elims;
                true
            | `None -> false
          end
        in
        if eliminated_up then audit Check.Post_unitpure
        else begin
          let must_linearize =
            match config.mode with
            | Elimination -> not (Dqbf.Depgraph.is_acyclic f)
            | Expand_all -> not (Bitset.is_empty (F.universals f))
          in
          if must_linearize then begin
            (* Theorem 2 on fully-dependent existentials, then one
               universal elimination (Theorem 1) *)
            if config.use_thm2 then begin
              let k =
                Obs.Span.with_ "elim.thm2" (fun () -> Dqbf.Elim.eliminate_full_existentials ?trail f)
              in
              if k > 0 then audit Check.Post_elimination
            end;
            if not (M.is_const (F.matrix f)) then begin
              let rec next_univ () =
                match !queue with
                | x :: rest ->
                    queue := rest;
                    if F.is_universal f x then Some x else next_univ ()
                | [] -> None
              in
              let x =
                match next_univ () with
                | Some x -> Some x
                | None ->
                    refill_queue ();
                    next_univ ()
              in
              match x with
              | Some x ->
                  if Chaos.fire config.chaos "elim.universal" then begin
                    Degrade.record ledger ~point:"elim.universal" ~action:"memout"
                      ~reason:Degrade.Injected;
                    raise Budget.Out_of_memory_budget
                  end;
                  Dqbf.Elim.universal ?trail f x;
                  audit ~queue:!queue Check.Post_elimination;
                  compact_or_fraig ()
              | None ->
                  (* no universal left to eliminate; the dependency graph
                     must be acyclic now *)
                  assert (Dqbf.Depgraph.is_acyclic f)
            end
          end
          else begin
            (* linear prefix: hand over to the QBF back end *)
            match Dqbf.Depgraph.qbf_prefix f with
            | None -> assert false
            | Some prefix ->
                if config.check_level <> Check.Off then
                  Check.audit_prefix ~stage:Check.Pre_backend f prefix;
                audit Check.Pre_backend;
                let t0 = Budget.now () in
                let run_elim stage_budget =
                  let on_define =
                    Option.map
                      (fun trail y man fn -> Dqbf.Model_trail.record_def trail man y fn)
                      trail
                  in
                  Qbf.Solver.solve ~config:config.qbf ~budget:stage_budget ?on_define (F.man f)
                    (F.matrix f) prefix
                in
                let run_search stage_budget =
                  let on_model =
                    Option.map
                      (fun trail mman defs ->
                        List.iter
                          (fun (y, fn) -> Dqbf.Model_trail.record_def trail mman y fn)
                          defs)
                      trail
                  in
                  Qbf.Qdpll.solve ~budget:stage_budget ?on_model (F.man f) (F.matrix f) prefix
                in
                let backend_name =
                  match config.qbf_backend with
                  | Search_backend -> "search"
                  | Elim_backend -> "elim"
                in
                let answer =
                  Obs.Span.with_ "qbf.backend"
                    ~attrs:
                      [
                        ("backend", Obs.Str backend_name);
                        ("nodes", Obs.Int (M.num_nodes (F.man f)));
                      ]
                  @@ fun () ->
                  match config.qbf_backend with
                  | Search_backend -> run_search budget
                  | Elim_backend ->
                      (* elimination can blow the node limit where search
                         cannot: fall back rather than report a memout *)
                      let mark = Option.map Dqbf.Model_trail.mark trail in
                      Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"qbf.elim"
                        ~action:"search" ~primary:run_elim
                        ~fallback:(fun () ->
                          rollback_opt trail mark;
                          run_search budget)
                        ()
                in
                Obs.Metrics.observe h_qbf_time (Budget.now () -. t0);
                raise (Done (if answer then Sat else Unsat))
          end
        end
      done;
      assert false
    with Done v -> v
  in
  (* remaining existentials (if any) are don't-cares on a SAT verdict *)
  (match (verdict, trail) with
  | Sat, Some trail ->
      List.iter (fun (y, _) -> Dqbf.Model_trail.record_const trail y false) (F.existentials f)
  | _ -> ());
  verdict


(* one bounded restart: a mid-elimination memout (node limit, not the
   heap governor) retries the whole solve once with the degraded config
   before the memout is allowed to escape *)
let solve_recoverable ~config ~budget ~trail ~ledger f0 =
  let mark = Option.map Dqbf.Model_trail.mark trail in
  try solve_impl ~config ~budget ~trail ~ledger ~restarts:0 f0
  with Budget.Out_of_memory_budget
  when config.restart_on_memout && not (Budget.expired budget)
       && not (Budget.mem_exceeded budget) ->
    rollback_opt trail mark;
    Degrade.record ledger ~point:"solve" ~action:"restart-degraded" ~reason:Degrade.Node_limit;
    Obs.Metrics.incr c_restarts;
    solve_impl ~config:(degraded_config config) ~budget ~trail ~ledger ~restarts:1 f0

type stats = {
  samples : Obs.Metrics.sample list;
  peak_nodes : int;
  degraded : string list;
  cert_status : string;
}

let stats_of_samples ?(degraded = []) ?(cert_status = "-") samples =
  let peak_nodes =
    match Obs.Metrics.find samples "hqs.peak_nodes" with Some v -> int_of_float v | None -> 0
  in
  { samples; peak_nodes; degraded; cert_status }

let metric stats name = Option.value (Obs.Metrics.find stats.samples name) ~default:0.0

(* every public entry point is one metric scope around [solve ledger]:
   the scope's samples are the solve's statistics *)
let scoped_solve solve =
  let t0 = Budget.now () in
  let ledger = Degrade.create () in
  let result, samples =
    Obs.Metrics.scoped (fun () ->
        let result = solve ledger in
        Obs.Metrics.observe h_total_time (Budget.now () -. t0);
        result)
  in
  (result, stats_of_samples ~degraded:(List.map Degrade.event_label (Degrade.events ledger)) samples)

let solve_formula ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  scoped_solve (fun ledger -> solve_recoverable ~config ~budget ~trail:None ~ledger f0)

let solve_formula_model ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  let (verdict, model), stats =
    scoped_solve @@ fun ledger ->
    let trail = Dqbf.Model_trail.create () in
    let verdict = solve_recoverable ~config ~budget ~trail:(Some trail) ~ledger f0 in
    let model =
      match verdict with
      | Unsat -> None
      | Sat ->
          let skolem = Dqbf.Model_trail.reconstruct trail in
          (* certify the witness against the original matrix before handing
             it out: a wrong Skolem function here means some stage lied *)
          if config.check_level = Check.Full then
            Check.audit_model ~budget ~stage:Check.Post_solve f0 skolem;
          Some (Dqbf.Skolem.restrict skolem ~keep:(Dqbf.Formula.is_existential f0))
    in
    (verdict, model)
  in
  (verdict, model, stats)

(* The front of the pipeline. Static dependency-scheme refinement
   (lib/analysis) comes first: it prunes spurious dependency edges on the
   prefixed CNF before any AIG is built, so CNF preprocessing (universal
   reduction in particular), the MaxSAT elimination-set selector and
   linearization all see the smaller dependency graph; the soundness gate
   semantically validates a sample of pruned edges at [Full] depth. Then
   CNF preprocessing, whose inprocessing run is audited against the
   refined CNF it consumed. [None] when preprocessing refutes. *)
let preprocess_pcnf ~(config : config) ~budget ?trail pcnf =
  let refined, report = Analysis.Rp.analyze ~scheme:config.dep_scheme pcnf in
  Check.audit_dep_pruning ~budget ~level:config.check_level pcnf
    ~pruned:report.Analysis.Rp.pruned;
  let on_inproc = Check.audit_inproc ~budget ~level:config.check_level refined in
  match
    Dqbf.Preprocess.run ~config:config.preprocess ?node_limit:config.node_limit ?trail
      ~on_inproc refined
  with
  | Dqbf.Preprocess.Unsat -> None
  | Dqbf.Preprocess.Formula (f, _) ->
      Check.audit_stage ~level:config.check_level Check.Post_preprocess f;
      Some f

let solve_pcnf ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  scoped_solve @@ fun ledger ->
  match preprocess_pcnf ~config ~budget pcnf with
  | None -> Unsat
  | Some f -> solve_recoverable ~config ~budget ~trail:None ~ledger f

(* shared body of the model-producing entry points: the returned Skolem
   witness is unrestricted — it also covers variables the preprocessor
   folded away and undeclared existentials, so it certifies against the
   original (unpreprocessed) formula *)
let solve_pcnf_witness ~config ~budget ~ledger pcnf =
  let trail = Dqbf.Model_trail.create () in
  match preprocess_pcnf ~config ~budget ~trail pcnf with
  | None -> (Unsat, None)
  | Some f ->
      let verdict = solve_recoverable ~config ~budget ~trail:(Some trail) ~ledger f in
      let model =
        match verdict with
        | Unsat -> None
        | Sat ->
            let skolem = Dqbf.Model_trail.reconstruct trail in
            if config.check_level = Check.Full then
              Check.audit_model ~budget ~stage:Check.Post_solve (Dqbf.Pcnf.to_formula pcnf)
                skolem;
            Some skolem
      in
      (verdict, model)

let restrict_to_declared pcnf skolem =
  let declared = Hqs_util.Bitset.of_list (List.map fst pcnf.Dqbf.Pcnf.exists) in
  Dqbf.Skolem.restrict skolem ~keep:(fun y -> Hqs_util.Bitset.mem y declared)

let solve_pcnf_model ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  let (verdict, model), stats =
    scoped_solve (fun ledger -> solve_pcnf_witness ~config ~budget ~ledger pcnf)
  in
  (verdict, Option.map (restrict_to_declared pcnf) model, stats)

let solve_pcnf_certified ?(config = default_config) ?(budget = Budget.unlimited)
    ~instance_text pcnf =
  let (verdict, cert, model), stats =
    scoped_solve @@ fun ledger ->
    let verdict, model = solve_pcnf_witness ~config ~budget ~ledger pcnf in
    let cert =
      match (verdict, model) with
      | Sat, Some skolem -> Cert.of_skolem ~instance_text pcnf skolem
      | Sat, None ->
          (* the witness entry point always reconstructs a model on Sat *)
          assert false
      | Unsat, _ -> Cert.of_unsat ~budget ~instance_text pcnf
    in
    (* audit before handing the artifact out: a failure here is the
       recovery-loop trigger, raised as a Check.Violation *)
    Check.audit_certificate ~budget ~level:config.check_level ~instance_text pcnf cert;
    (verdict, cert, model)
  in
  ( verdict,
    cert,
    Option.map (restrict_to_declared pcnf) model,
    { stats with cert_status = Cert.status cert } )

(* where one reported statistic lives *)
type source =
  | Count of string (* a counter or gauge of the solve's samples *)
  | Secs of string (* the sum of a timing histogram *)
  | Flag of string (* a 0/1 counter *)
  | Echo of (config -> string) (* a setting of the run's config *)
  | Field of (stats -> string) (* kept outside the registry *)

(* The one table behind every rendering of [stats]: the [--stats] key,
   the CSV column ("" when the CSV has none) and the source, in
   [--stats] order. *)
let table =
  [
    ("univ-elims", "hqs_univ_elims", Count "elim.universal");
    ("exist-elims", "hqs_exist_elims", Count "elim.existential");
    ("unit/pure", "hqs_unitpure_elims", Count "hqs.unitpure_elims");
    ("maxsat-runs", "", Count "hqs.maxsat_time_s.count");
    ("maxsat-set", "hqs_maxsat_set", Count "hqs.maxsat_set");
    ("maxsat-time", "hqs_maxsat_time", Secs "hqs.maxsat_time_s");
    ("unitpure-time", "", Secs "hqs.unitpure_time_s");
    ("qbf-time", "hqs_qbf_time", Secs "hqs.qbf_time_s");
    ("peak-nodes", "hqs_peak_nodes", Count "hqs.peak_nodes");
    ("sat-conflicts", "hqs_sat_conflicts", Count "sat.conflicts");
    ("sat-propagations", "hqs_sat_propagations", Count "sat.propagations");
    ("fraig-merges", "hqs_fraig_merges", Count "fraig.merges");
    ("checks", "hqs_checks", Count "check.audits");
    ("check-level", "", Echo (fun c -> Check.level_name c.check_level));
    ("total", "", Secs "hqs.total_time_s");
    ("restarts", "hqs_restarts", Count "hqs.restarts");
    ("degraded", "", Field (fun s -> match s.degraded with [] -> "-" | l -> String.concat "," l));
    ("dep-scheme", "hqs_dep_scheme", Echo (fun c -> Analysis.Scheme.name c.dep_scheme));
    ("dep-pruned", "hqs_analysis_edges_pruned", Count "analysis.edges_pruned");
    ("linearized", "hqs_analysis_linearized", Flag "analysis.linearized");
    ( "inproc",
      "hqs_inproc_mode",
      Echo (fun c -> Inproc.mode_name c.preprocess.Dqbf.Preprocess.inproc) );
    ("inproc-rounds", "hqs_inproc_rounds", Count "inproc.rounds");
    ("inproc-units", "hqs_inproc_units", Count "inproc.units");
    ("inproc-merges", "hqs_inproc_scc_merges", Count "inproc.scc_merges");
    ("inproc-subsumed", "hqs_inproc_subsumed", Count "inproc.subsumed");
    ("inproc-strengthened", "hqs_inproc_strengthened", Count "inproc.strengthened");
    ("inproc-failed-lits", "hqs_inproc_failed_lits", Count "inproc.failed_lits");
    ("inproc-bve", "hqs_inproc_bve", Count "inproc.bve_eliminated");
    ("inproc-clauses-removed", "hqs_inproc_clauses_removed", Count "inproc.clauses_removed");
    ("inproc-lits-removed", "hqs_inproc_lits_removed", Count "inproc.lits_removed");
    ("cert", "hqs_cert_status", Field (fun s -> s.cert_status));
  ]

let render ~csv config stats = function
  | Count name -> string_of_int (int_of_float (metric stats name))
  | Secs name -> Printf.sprintf (if csv then "%.3f" else "%.3fs") (metric stats (name ^ ".sum"))
  | Flag name ->
      let on = metric stats name > 0.0 in
      if not csv then string_of_bool on else if on then "1" else "0"
  | Echo f -> f config
  | Field f -> f stats

let stats_cell config stats column =
  match List.find_opt (fun (_, col, _) -> col <> "" && String.equal col column) table with
  | Some (_, _, source) -> render ~csv:true config stats source
  | None -> invalid_arg ("Hqs.stats_cell: no CSV column " ^ column)

let pp_stats config fmt stats =
  Format.pp_print_string fmt
    (String.concat " "
       (List.map (fun (key, _, source) -> key ^ "=" ^ render ~csv:false config stats source) table))
