(* Partial equivalence checking of an incomplete ripple-carry adder — the
   paper's motivating application (Section I): two full-adder cells have
   not been implemented yet (black boxes), and we ask whether ANY
   implementation of the boxes can make the design match the golden adder.

   Because each box observes only its own cell's inputs, the two boxes
   have incomparable dependency sets: the question is a genuine DQBF, not
   a QBF (Example 1 / Theorem 4 of the paper). *)

module Fam = Circuit.Families
module N = Circuit.Netlist

let show_instance (inst : Fam.instance) =
  let gates_spec, _ = N.counts inst.Fam.spec in
  let gates_impl, boxes = N.counts inst.Fam.impl in
  Printf.printf "instance %s: spec %d gates; impl %d gates + %d black boxes\n" inst.Fam.id
    gates_spec gates_impl boxes;
  let p = inst.Fam.pcnf in
  Printf.printf "  DQBF: %d vars (%d universal, %d existential), %d clauses\n"
    p.Dqbf.Pcnf.num_vars
    (List.length p.Dqbf.Pcnf.univs)
    (List.length p.Dqbf.Pcnf.exists)
    (List.length p.Dqbf.Pcnf.clauses)

let solve (inst : Fam.instance) =
  let t0 = Hqs_util.Budget.now () in
  let verdict, stats = Hqs.solve_pcnf inst.Fam.pcnf in
  let dt = Hqs_util.Budget.now () -. t0 in
  Printf.printf "  HQS: %s in %.3f s (%d universal eliminations, MaxSAT set of %d)\n"
    (match verdict with
    | Hqs.Sat -> "REALIZABLE (the boxes can be implemented)"
    | Hqs.Unsat -> "UNREALIZABLE (no box implementation works)")
    dt
    (int_of_float (Hqs.metric stats "elim.universal"))
    (int_of_float (Hqs.metric stats "hqs.maxsat_set"))

let () =
  print_endline "=== 4-bit adder, two unimplemented full-adder cells ===";
  let ok = Fam.adder ~bits:4 ~boxes:2 ~fault:false in
  show_instance ok;
  solve ok;
  print_endline "";
  print_endline "=== same design with a bug injected outside the boxes ===";
  print_endline "(one sum XOR replaced by OR: no black-box implementation can fix it)";
  let bad = Fam.adder ~bits:4 ~boxes:2 ~fault:true in
  show_instance bad;
  solve bad;
  print_endline "";
  (* demonstrate the realizability witness concretely: plug the golden
     full-adder into the boxes of the fault-free design and compare *)
  print_endline "=== sanity: plugging the textbook full-adder into the boxes ===";
  let agree = ref true in
  let spec = ok.Fam.spec and impl = ok.Fam.impl in
  for bits = 0 to (1 lsl spec.N.num_inputs) - 1 do
    let input = Array.init spec.N.num_inputs (fun i -> bits land (1 lsl i) <> 0) in
    if N.eval spec input <> N.eval_with_boxes impl ~box_fn:ok.Fam.golden input then agree := false
  done;
  Printf.printf "golden boxes reproduce the spec on all %d input vectors: %b\n"
    (1 lsl spec.N.num_inputs) !agree
