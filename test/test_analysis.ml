(* Static dependency-scheme analyzer (lib/analysis): hand-built cases for
   the resolution-path semantics, QCheck properties tying the refinement
   to the declared prefix, and end-to-end agreement with the trivial
   scheme through the full solver. *)

open Hqs_util
module Pcnf = Dqbf.Pcnf
module Rp = Analysis.Rp
module Scheme = Analysis.Scheme

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pcnf ~num_vars ~univs ~exists ~clauses = { Pcnf.num_vars; univs; exists; clauses }

let analyze scheme p =
  match Pcnf.validate p with
  | Error m -> Alcotest.failf "bad fixture: %s" m
  | Ok () -> Rp.analyze ~scheme p

(* ------------------------------------------------------------ unit cases *)

(* x never appears in the matrix: dep(y) = {x} is spurious *)
let test_disconnected_pruned () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 2 ]; [ -2 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check_int "edge pruned" 1 (List.length r.Rp.pruned);
  check "the x->y edge" true (r.Rp.pruned = [ (0, 1) ]);
  check "refined prefix dropped it" true (List.assoc 1 refined.Pcnf.exists = []);
  check "clauses untouched" true (refined.Pcnf.clauses = p.Pcnf.clauses)

(* y <-> x: both polarity paths exist, the edge is load-bearing *)
let test_connected_kept () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ]
      ~clauses:[ [ 1; -2 ]; [ -1; 2 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check_int "nothing pruned" 0 (List.length r.Rp.pruned);
  check "dep kept" true (List.assoc 1 refined.Pcnf.exists = [ 0 ])

(* x appears only positively: x ~> y but no path leaves ~x, so no
   polarity-consistent pair exists and the edge goes *)
let test_single_polarity_pruned () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 1; 2 ]; [ 1; -2 ] ]
  in
  let _, r = analyze Scheme.Rp p in
  check "pruned" true (r.Rp.pruned = [ (0, 1) ])

(* the path x -> y runs through z; z is a connecting variable only if z
   depends on x *)
let test_connecting_variable () =
  let clauses = [ [ 1; 3 ]; [ -3; 2 ]; [ -1; -3 ]; [ 3; -2 ] ] in
  (* z (var 2) depends on x: paths connect in both polarities, edge kept *)
  let p_dep =
    pcnf ~num_vars:3 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]); (2, [ 0 ]) ] ~clauses
  in
  let _, r_dep = analyze Scheme.Rp p_dep in
  check "kept through a depending connector" true
    (not (List.mem (0, 1) r_dep.Rp.pruned));
  (* z independent of x: z cannot connect, and x/y never share a clause *)
  let p_indep =
    pcnf ~num_vars:3 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]); (2, []) ] ~clauses
  in
  let _, r_indep = analyze Scheme.Rp p_indep in
  check "pruned past an independent connector" true (List.mem (0, 1) r_indep.Rp.pruned)

let test_trivial_identity () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 2 ]; [ -2 ] ]
  in
  let refined, r = analyze Scheme.Trivial p in
  check "prefix unchanged" true (refined = p);
  check_int "no pruning" 0 (List.length r.Rp.pruned);
  check_int "edge counts agree" r.Rp.edges_before r.Rp.edges_after;
  check "not linearized" false r.Rp.linearized

(* incomparable declared sets {x1} / {x2}, but y2's dependency is
   spurious: pruning it makes the refined sets pairwise comparable *)
let test_linearized () =
  let p =
    pcnf ~num_vars:4 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0 ]); (3, [ 1 ]) ]
      ~clauses:[ [ 1; -3 ]; [ -1; 3 ]; [ 4 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check "y1 keeps x1" true (List.assoc 2 refined.Pcnf.exists = [ 0 ]);
  check "y2 loses x2" true (List.assoc 3 refined.Pcnf.exists = []);
  check "the pruned edge" true (r.Rp.pruned = [ (1, 3) ]);
  check_int "incomparable before" 1 r.Rp.incomparable_before;
  check_int "incomparable after" 0 r.Rp.incomparable_after;
  check "linearized" true r.Rp.linearized

(* ------------------------------------------------------------ properties *)

(* random PCNFs, mirroring test_dqbf's instance space at the clause level *)
type instance = {
  nu : int;
  ne : int;
  dep_masks : int list;
  clauses : (int * bool) list list;
}

let instance_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nu ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 12) (list_size (int_range 1 3) (pair (int_bound (n - 1)) bool))
    >>= fun clauses -> return { nu; ne; dep_masks; clauses })

let instance_print { nu; ne; dep_masks; clauses } =
  Printf.sprintf "nu=%d ne=%d deps=[%s] clauses=%s" nu ne
    (String.concat ";" (List.map string_of_int dep_masks))
    (String.concat " "
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun (v, s) -> string_of_int (if s then -(v + 1) else v + 1)) c))
          clauses))

let instance_arb = QCheck.make ~print:instance_print instance_gen

let to_pcnf { nu; ne; dep_masks; clauses } =
  pcnf ~num_vars:(nu + ne)
    ~univs:(List.init nu Fun.id)
    ~exists:
      (List.mapi
         (fun i mask ->
           (nu + i, List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id)))
         dep_masks)
    ~clauses:
      (List.map (List.map (fun (v, s) -> if s then -(v + 1) else v + 1)) clauses)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_refinement_shrinks =
  QCheck.Test.make ~count:300 ~name:"rp only removes dependency edges" instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      let refined, r = Rp.analyze ~scheme:Scheme.Rp p in
      List.for_all2
        (fun (v, before) (v', after) -> v = v' && subset after before)
        p.Pcnf.exists refined.Pcnf.exists
      && refined.Pcnf.clauses = p.Pcnf.clauses
      && refined.Pcnf.univs = p.Pcnf.univs
      && r.Rp.edges_after = r.Rp.edges_before - List.length r.Rp.pruned
      && r.Rp.edges_after <= r.Rp.edges_before)

let prop_trivial_fixpoint =
  QCheck.Test.make ~count:100 ~name:"trivial scheme is the identity" instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      let refined, r = Rp.analyze ~scheme:Scheme.Trivial p in
      refined = p && r.Rp.pruned = [] && r.Rp.edges_before = r.Rp.edges_after)

let prop_rp_preserves_truth =
  QCheck.Test.make ~count:120 ~name:"rp refinement preserves satisfiability"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let refined, _ = Rp.analyze ~scheme:Scheme.Rp p in
      Dqbf.Reference.by_expansion (Pcnf.to_formula p)
      = Dqbf.Reference.by_expansion (Pcnf.to_formula refined))

(* end-to-end: the full solver under either scheme and a Full auditor
   agrees, and rp never enlarges the MaxSAT elimination set *)
let prop_solver_agreement =
  QCheck.Test.make ~count:60 ~name:"solver verdicts agree across schemes"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let solve scheme =
        Hqs.solve_pcnf
          ~config:
            {
              Hqs.default_config with
              Hqs.dep_scheme = scheme;
              check_level = Check.Full;
            }
          ~budget:(Budget.of_seconds 10.0)
          p
      in
      let v_triv, s_triv = solve Scheme.Trivial in
      let v_rp, s_rp = solve Scheme.Rp in
      v_triv = v_rp && Hqs.metric s_rp "hqs.maxsat_set" <= Hqs.metric s_triv "hqs.maxsat_set")

let () =
  Alcotest.run "analysis"
    [
      ( "rp",
        [
          Alcotest.test_case "disconnected pruned" `Quick test_disconnected_pruned;
          Alcotest.test_case "connected kept" `Quick test_connected_kept;
          Alcotest.test_case "single polarity pruned" `Quick test_single_polarity_pruned;
          Alcotest.test_case "connecting variable" `Quick test_connecting_variable;
          Alcotest.test_case "trivial identity" `Quick test_trivial_identity;
          Alcotest.test_case "linearized" `Quick test_linearized;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refinement_shrinks;
            prop_trivial_fixpoint;
            prop_rp_preserves_truth;
            prop_solver_agreement;
          ] );
    ]
