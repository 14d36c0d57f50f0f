(* Quickstart: build the paper's Example 1 DQBF through the API, inspect
   its dependency graph, and solve it with HQS and with the iDQ baseline.

     forall x1 x2. exists y1(x1). exists y2(x2). matrix

   With matrix (y1 <-> x1) and (y2 <-> x2) the formula is satisfied (each
   y_i copies the variable it may see); with the crossed matrix
   (y1 <-> x2) and (y2 <-> x1) it is unsatisfiable, because y1 would need
   to know x2. No QBF prefix can express these dependencies (Theorem 3),
   which is exactly what makes this a DQBF problem. *)

module M = Aig.Man
module F = Dqbf.Formula

let build ~crossed =
  let f = F.create () in
  (* variables are plain ints; 0,1 universal and 2,3 existential *)
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Hqs_util.Bitset.singleton 0);
  F.add_existential f 3 ~deps:(Hqs_util.Bitset.singleton 1);
  let man = F.man f in
  let x1 = M.input man 0 and x2 = M.input man 1 in
  let y1 = M.input man 2 and y2 = M.input man 3 in
  let matrix =
    if crossed then M.mk_and man (M.mk_iff man y1 x2) (M.mk_iff man y2 x1)
    else M.mk_and man (M.mk_iff man y1 x1) (M.mk_iff man y2 x2)
  in
  F.set_matrix f matrix;
  f

let describe f =
  Format.printf "formula: %a@." F.pp f;
  Printf.printf "dependency graph acyclic (QBF-expressible): %b\n"
    (Dqbf.Depgraph.is_acyclic f);
  let pairs = Dqbf.Depgraph.incomparable_pairs f in
  Printf.printf "incomparable pairs: %s\n"
    (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "(y%d,y%d)" a b) pairs));
  let set = Dqbf.Elimset.minimum_set f in
  Printf.printf "minimum universal elimination set (via MaxSAT): {%s}\n"
    (String.concat ", " (List.map string_of_int set))

let solve_both name f =
  let verdict, stats = Hqs.solve_formula f in
  Printf.printf "%-12s HQS: %s   (%s)\n" name
    (match verdict with Hqs.Sat -> "SAT" | Hqs.Unsat -> "UNSAT")
    (Format.asprintf "%a" (Hqs.pp_stats Hqs.default_config) stats);
  let answer, istats = Idq.solve f in
  Printf.printf "%-12s iDQ: %s   (%d instantiation rounds, %d ground vars)\n" name
    (if answer then "SAT" else "UNSAT")
    istats.Idq.rounds istats.Idq.ground_vars

let () =
  print_endline "=== Example 1 of the paper: aligned dependencies ===";
  let f = build ~crossed:false in
  describe f;
  solve_both "aligned" f;
  print_endline "";
  print_endline "=== crossed dependencies: y1 sees only x1 but must track x2 ===";
  let g = build ~crossed:true in
  solve_both "crossed" g;
  print_endline "";
  (* the same formula through the DQDIMACS pipeline *)
  print_endline "=== same instance via DQDIMACS text ===";
  let text =
    "c Example 1, crossed\n\
     p cnf 4 4\n\
     a 1 2 0\n\
     d 3 1 0\n\
     d 4 2 0\n\
     3 -2 0\n\
     -3 2 0\n\
     4 -1 0\n\
     -4 1 0\n"
  in
  let pcnf = Dqbf.Pcnf.parse_string text in
  let verdict, _ = Hqs.solve_pcnf pcnf in
  Printf.printf "parsed and solved: %s\n"
    (match verdict with Hqs.Sat -> "SAT" | Hqs.Unsat -> "UNSAT")
