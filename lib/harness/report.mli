(** Formatting of the paper's evaluation artifacts from a list of per-
    instance results: Table I (per-family solved/unsolved breakdown with
    total time on commonly solved instances, plus a [degr] column counting
    HQS runs that degraded an accelerator), Fig. 4 (the iDQ-vs-HQS
    runtime scatter, as a data series plus an ASCII log-log plot), and the
    headline claims of Section IV. Verdict disagreements recorded by the
    runner are surfaced as SOUNDNESS ALARM lines. *)

val table1 : Runner.result list -> string
val fig4 : ?timeout:float -> Runner.result list -> string
val headline : Runner.result list -> string
val csv : config:Hqs.config -> Runner.result list -> string
(** [csv ~config results], where [config] is the config every HQS solve
    ran under (it supplies the [hqs_dep_scheme] and [hqs_inproc_mode]
    echoes). One line per instance: id, family, solver outcomes and times, the
    degradation/soundness columns, then a fixed set of per-solve metric
    columns ([hqs_restarts], [hqs_peak_nodes], elimination counts, stage
    times, SAT conflict/propagation counts, FRAIG merges, audits run),
    then the executor columns [outcome] (solved/timeout/memout/crash,
    classifying the HQS run), [attempts] and [worker_pid] (empty for
    in-process runs), then the static-analysis columns [hqs_dep_scheme],
    [hqs_analysis_edges_pruned] and [hqs_analysis_linearized], then the
    inprocessing-engine columns [hqs_inproc_mode], [hqs_inproc_rounds],
    [hqs_inproc_units], [hqs_inproc_scc_merges], [hqs_inproc_subsumed],
    [hqs_inproc_strengthened], [hqs_inproc_failed_lits],
    [hqs_inproc_bve], [hqs_inproc_clauses_removed] and
    [hqs_inproc_lits_removed], then the certification columns
    [hqs_cert_status] (SAT/UNSAT/UNCERTIFIED, ["-"] when no artifact was
    requested) and [cert] (the artifact path from a certifying sweep).
    The pre-existing columns keep their positions byte-for-byte. Every
    [hqs_*] cell comes from the row's {!Hqs.stats} through
    {!Hqs.stats_cell}; they are empty for rows without stats (a crash,
    or a timeout/memout that salvaged no metrics). *)
