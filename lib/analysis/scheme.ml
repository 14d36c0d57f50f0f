type t = Trivial | Rp

let default = Rp
let name = function Trivial -> "trivial" | Rp -> "rp"

let of_string = function
  | "trivial" -> Some Trivial
  | "rp" -> Some Rp
  | _ -> None
