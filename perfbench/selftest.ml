(* The benchmark's own tests, run by `dune runtest` (see perfbench/dune)
   on a tiny workload that takes well under a second. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "perfbench self-test FAILED: %s\n%!" name
  end

let tiny =
  {
    Workload.name = "tiny";
    grid = [ { Workload.family = "adder"; size = 2; boxes = 1 }; Workload.p "pec_xor" 4 ];
    certify = true;
  }

let fresh_tally () = { Bench.attempted = 0; failed = 0; wrong = [] }

let flip (i : Workload.instance) =
  let expect = match i.Workload.expect with Hqs.Sat -> Hqs.Unsat | Hqs.Unsat -> Hqs.Sat in
  { i with Workload.expect }

(* a wrong expected verdict must trip the gate, traced and untraced *)
let test_gate () =
  let insts = List.map flip (Workload.instances tiny ~seed:1) in
  let t = fresh_tally () in
  let _ = Bench.untraced_pass ~certcheck:None t tiny insts in
  check "flipped verdicts trip the untraced gate" (List.length t.Bench.wrong = List.length insts);
  let t = fresh_tally () in
  let _ = Bench.traced_pass ~certcheck:None t tiny insts in
  check "flipped verdicts trip the traced gate" (List.length t.Bench.wrong = List.length insts)

let test_seed () =
  let texts seed = List.map (fun i -> i.Workload.text) (Workload.instances tiny ~seed) in
  check "same seed, byte-identical texts" (texts 7 = texts 7);
  check "another seed, other texts" (texts 7 <> texts 8)

(* scrambling changes the text, never the generator's verdict *)
let test_scramble ~config =
  let point = { Workload.family = "adder"; size = 2; boxes = 1 } in
  List.iter
    (fun fault ->
      let plain = Dqbf.Pcnf.to_string (Workload.generate point ~fault).Circuit.Families.pcnf in
      List.iter
        (fun seed ->
          let inst = Workload.instance ~seed point ~fault in
          check
            (Printf.sprintf "seed %d scrambles %s" seed inst.Workload.id)
            (inst.Workload.text <> plain);
          let v, _ = Hqs.solve_pcnf ~config (Dqbf.Pcnf.parse_string inst.Workload.text) in
          check (Printf.sprintf "seed %d keeps the verdict of %s" seed inst.Workload.id)
            (v = inst.Workload.expect))
        [ 1; 2; 3 ])
    [ false; true ]

let json_metrics doc key =
  match Option.bind (Obs.Json.member key doc) Obs.Json.to_list with
  | None -> []
  | Some l ->
      List.filter_map
        (fun m ->
          match
            (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string,
             Option.bind (Obs.Json.member "unit" m) Obs.Json.to_string)
          with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

(* every printed metric is well named and declared in BENCHMARK.json
   with the same unit, and the workloads agree *)
let test_names ~benchmark_json ~certcheck =
  match Obs.Json.parse (In_channel.with_open_bin benchmark_json In_channel.input_all) with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok doc ->
      let declared_workloads =
        Option.value ~default:[] (Option.bind (Obs.Json.member "workloads" doc) Obs.Json.to_list)
        |> List.filter_map (fun w -> Option.bind (Obs.Json.member "name" w) Obs.Json.to_string)
      in
      check "workloads match BENCHMARK.json"
        (declared_workloads = List.map (fun w -> w.Workload.name) Workload.all);
      List.iter
        (fun (trace, key, names) ->
          let declared = json_metrics doc key in
          check (key ^ " lists match BENCHMARK.json")
            (List.sort compare declared = List.sort compare names);
          let r = Bench.run ~trace ~seconds:0.0 ~seed:3 ~certcheck tiny in
          check (key ^ ": tiny run is correct") (r.Bench.correct && r.Bench.failed = 0);
          List.iter
            (fun (name, _, unit) ->
              check ("metric name " ^ name) (valid_name name);
              check ("metric declared " ^ name) (List.mem (name, unit) declared))
            r.Bench.metrics;
          check (key ^ ": every metric printed")
            (List.length r.Bench.metrics = List.length declared))
        [ (false, "end_to_end", Bench.end_to_end); (true, "per_layer", Bench.per_layer) ]

let run ~benchmark_json ~certcheck =
  Bench.quiet := true;
  let config = Hqs.default_config in
  test_gate ();
  test_seed ();
  test_scramble ~config;
  test_names ~benchmark_json ~certcheck;
  if !failures = 0 then 0 else 1
