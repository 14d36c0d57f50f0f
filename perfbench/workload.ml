(* The benchmark's workloads: fixed grids of PEC instances from
   [Circuit.Families], rendered to DQDIMACS text.

   Every run solves the whole grid of its workload, both polarities of
   each point, so runs with different seeds do the same amount of work.
   The seed scrambles clause order and literal order inside clauses
   (which never changes the verdict) and the order the instances are
   solved in. *)

type point = { family : string; size : int; boxes : int }

type t = {
  name : string;
  grid : point list;
  certify : bool;  (** solve through the certifying entry point and run certcheck *)
}

(* the wall-clock limit of every solve; every instance decides well
   inside it *)
let limit_s = 60.0

type instance = {
  id : string;
  expect : Hqs.verdict;  (** the generator's answer: fault => Unsat, ok => Sat *)
  text : string;
  fingerprint : string;
}

let p family size = { family; size; boxes = 2 }

(* AIG quantification in qbf.elim dominates; SAT and the front end are
   a small share. z4 c3 is left out: its FRAIG sweep runs into the 2 s
   sweep time box of Qbf.Solver, so its work would depend on machine
   load. *)
let elim_core =
  {
    name = "elim_core";
    grid =
      [
        p "z4" 4; p "c432" 3; p "c432" 4; p "pec_xor" 16; p "comp" 24; p "bitcell" 48;
        p "bitcell" 64;
      ];
    certify = false;
  }

(* FRAIG sweeps with many small incremental SAT checks. The longest
   sweep (adder b4, fault-free) takes about 1.2 s against its 2 s box. *)
let fraig_sat =
  { name = "fraig_sat"; grid = [ p "adder" 4; p "c432" 5 ]; certify = false }

(* ~0.5-1 MB instances: parse, analysis and preprocessing dominate *)
let frontend =
  {
    name = "frontend";
    grid = [ p "lookahead" 48; p "lookahead" 64 ];
    certify = false;
  }

(* small instances whose UNSAT side stays under the 12-universal
   expansion cap of Cert.of_unsat *)
let certified =
  {
    name = "certified";
    grid =
      [
        p "z4" 1; { family = "adder"; size = 3; boxes = 1 }; p "pec_xor" 6; p "lookahead" 6;
        p "z4" 2;
      ];
    certify = true;
  }

let all = [ elim_core; fraig_sat; frontend; certified ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

let generate { family; size; boxes } ~fault =
  let module F = Circuit.Families in
  match family with
  | "adder" -> F.adder ~bits:size ~boxes ~fault
  | "bitcell" -> F.bitcell ~cells:size ~boxes ~fault
  | "lookahead" -> F.lookahead ~cells:size ~boxes ~fault
  | "pec_xor" -> F.pec_xor ~length:size ~boxes ~fault
  | "z4" -> F.z4 ~add_bits:size ~boxes ~fault
  | "comp" -> F.comp ~bits:size ~boxes ~fault
  | "c432" -> F.c432 ~groups:3 ~lines:size ~boxes ~fault
  | other -> invalid_arg ("unknown family " ^ other)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let shuffled rng l =
  let a = Array.of_list l in
  shuffle rng a;
  Array.to_list a

(* Clause order and literal order are irrelevant to a CNF's meaning, so
   the scrambled text keeps the generator's verdict. *)
let scramble rng (pcnf : Dqbf.Pcnf.t) =
  { pcnf with Dqbf.Pcnf.clauses = shuffled rng (List.map (shuffled rng) pcnf.Dqbf.Pcnf.clauses) }

let instance ~seed point ~fault =
  let inst = generate point ~fault in
  let rng = Random.State.make [| seed; Hashtbl.hash inst.Circuit.Families.id |] in
  let text = Dqbf.Pcnf.to_string (scramble rng inst.Circuit.Families.pcnf) in
  {
    id = inst.Circuit.Families.id;
    expect = (if fault then Hqs.Unsat else Hqs.Sat);
    text;
    fingerprint = Digest.to_hex (Digest.string text);
  }

(* the workload's instance texts for [seed], in the seeded solve order *)
let instances w ~seed =
  let all =
    List.concat_map
      (fun pt -> [ instance ~seed pt ~fault:false; instance ~seed pt ~fault:true ])
      w.grid
  in
  shuffled (Random.State.make [| seed |]) all

let verdict_name = function Hqs.Sat -> "SAT" | Hqs.Unsat -> "UNSAT"
