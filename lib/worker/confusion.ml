type t = { id : int; name : string; cost : float; matrix : float array array }

let validate matrix =
  let l = Array.length matrix in
  if l < 2 then invalid_arg "Confusion.make: need at least 2 labels";
  Array.iter
    (fun r ->
      if Array.length r <> l then invalid_arg "Confusion.make: matrix not square";
      Array.iter
        (fun p ->
          if p < 0. || Float.is_nan p then
            invalid_arg "Confusion.make: negative entry")
        r;
      let s = Prob.Kahan.sum_array r in
      if Float.abs (s -. 1.) > 1e-9 then
        invalid_arg "Confusion.make: row does not sum to 1")
    matrix

let normalize_rows matrix =
  Array.map
    (fun r ->
      let s = Prob.Kahan.sum_array r in
      Array.map (fun p -> p /. s) r)
    matrix

let make ?name ~id ~matrix ~cost () =
  validate matrix;
  if cost < 0. || Float.is_nan cost then
    invalid_arg "Confusion.make: cost must be nonnegative";
  let name = match name with Some n -> n | None -> Printf.sprintf "w%d" id in
  { id; name; cost; matrix = normalize_rows matrix }

let of_binary w =
  let q = Worker.quality w in
  make ~name:(Worker.name w) ~id:(Worker.id w)
    ~matrix:[| [| q; 1. -. q |]; [| 1. -. q; q |] |]
    ~cost:(Worker.cost w) ()

let with_id c id = { c with id }
let id c = c.id
let name c = c.name
let cost c = c.cost
let labels c = Array.length c.matrix

let prob c ~truth ~vote =
  let l = labels c in
  if truth < 0 || truth >= l || vote < 0 || vote >= l then
    invalid_arg "Confusion.prob: label out of range";
  c.matrix.(truth).(vote)

let row c j =
  if j < 0 || j >= labels c then invalid_arg "Confusion.row";
  Array.copy c.matrix.(j)

let unsafe_row c j =
  if j < 0 || j >= labels c then invalid_arg "Confusion.unsafe_row";
  c.matrix.(j)

let accuracy_given_uniform_prior c =
  let l = labels c in
  let acc = ref 0. in
  for j = 0 to l - 1 do
    acc := !acc +. c.matrix.(j).(j)
  done;
  !acc /. float_of_int l

let diagonal_dominant c =
  let l = labels c in
  let ok = ref true in
  for j = 0 to l - 1 do
    for k = 0 to l - 1 do
      if c.matrix.(j).(k) > c.matrix.(j).(j) then ok := false
    done
  done;
  !ok

let symmetric_quality c =
  (* Bitwise comparison on purpose: lowering a matrix worker to a scalar one
     must be exact, or the two representations would score ulp-differently. *)
  if labels c <> 2 then None
  else
    let m = c.matrix in
    if m.(0).(0) = m.(1).(1) && m.(0).(1) = m.(1).(0) then Some m.(0).(0)
    else None

let symmetric_binary ~quality ~id ~cost =
  if quality < 0. || quality > 1. then
    invalid_arg "Confusion.symmetric_binary: quality outside [0, 1]";
  make ~id ~matrix:[| [| quality; 1. -. quality |]; [| 1. -. quality; quality |] |] ~cost ()

let uniform_spammer ~labels ~id ~cost =
  if labels < 2 then invalid_arg "Confusion.uniform_spammer";
  let p = 1. /. float_of_int labels in
  make ~id ~matrix:(Array.make_matrix labels labels p) ~cost ()

let pp ppf c =
  Format.fprintf ppf "%s(l=%d, c=%g, acc=%.3f)" c.name (labels c) c.cost
    (accuracy_given_uniform_prior c)
