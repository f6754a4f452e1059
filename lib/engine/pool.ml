type repr =
  | Binary of Workers.Pool.t
  | Matrix of Workers.Confusion.t array

type t = repr

let repr t = t
let of_workers p = Binary p

let lower confusions =
  (* A pool of exactly-symmetric 2x2 matrices is the binary model in
     disguise: recover the scalar qualities so downstream consumers hit the
     dense Bucket/Incremental fast paths.  All-or-nothing on purpose — a
     mixed pool must be scored by the matrix machinery anyway. *)
  let n = Array.length confusions in
  let rec go i acc =
    if i = n then Some (Workers.Pool.of_list (List.rev acc))
    else
      match Workers.Confusion.symmetric_quality confusions.(i) with
      | None -> None
      | Some q ->
          let c = confusions.(i) in
          let w =
            Workers.Worker.make
              ~name:(Workers.Confusion.name c)
              ~id:(Workers.Confusion.id c)
              ~quality:q
              ~cost:(Workers.Confusion.cost c)
              ()
          in
          go (i + 1) (w :: acc)
  in
  go 0 []

let of_confusions confusions =
  let n = Array.length confusions in
  if n = 0 then Binary (Workers.Pool.of_list [])
  else begin
    let l = Workers.Confusion.labels confusions.(0) in
    Array.iter
      (fun c ->
        if Workers.Confusion.labels c <> l then
          invalid_arg "Engine.Pool.of_confusions: mixed label counts")
      confusions;
    match lower confusions with
    | Some pool -> Binary pool
    | None -> Matrix (Array.copy confusions)
  end

let size = function
  | Binary p -> Workers.Pool.size p
  | Matrix a -> Array.length a

let is_empty t = size t = 0

let labels = function
  | Binary _ -> 2
  | Matrix a -> if Array.length a = 0 then 2 else Workers.Confusion.labels a.(0)

let cost t i =
  match t with
  | Binary p -> Workers.Worker.cost (Workers.Pool.get p i)
  | Matrix a ->
      if i < 0 || i >= Array.length a then invalid_arg "Engine.Pool.cost";
      Workers.Confusion.cost a.(i)

let costs = function
  | Binary p -> Workers.Pool.costs p
  | Matrix a -> Array.map Workers.Confusion.cost a

let total_cost = function
  | Binary p -> Workers.Pool.total_cost p
  | Matrix a ->
      Prob.Kahan.sum_array (Array.map Workers.Confusion.cost a)

let ids = function
  | Binary p -> List.map Workers.Worker.id (Workers.Pool.to_list p)
  | Matrix a -> Array.to_list (Array.map Workers.Confusion.id a)

let sub t selected =
  let n = size t in
  if Array.length selected <> n then
    invalid_arg "Engine.Pool.sub: selection length mismatch";
  let idxs = ref [] in
  for i = n - 1 downto 0 do
    if selected.(i) then idxs := i :: !idxs
  done;
  match t with
  | Binary p -> Binary (Workers.Pool.sub p !idxs)
  | Matrix a -> Matrix (Array.of_list (List.map (Array.get a) !idxs))

let to_workers = function
  | Binary p -> Some p
  | Matrix _ -> None

let to_workers_exn = function
  | Binary p -> p
  | Matrix _ -> invalid_arg "Engine.Pool.to_workers_exn: matrix pool"

let to_confusions = function
  | Binary p ->
      Array.map Workers.Confusion.of_binary (Workers.Pool.to_array p)
  | Matrix a -> Array.copy a

let equal a b =
  match (a, b) with
  | Binary p, Binary q -> Workers.Pool.equal p q
  | Matrix x, Matrix y ->
      Array.length x = Array.length y
      && Array.for_all2
           (fun c d ->
             Workers.Confusion.id c = Workers.Confusion.id d
             && Workers.Confusion.cost c = Workers.Confusion.cost d
             && Workers.Confusion.labels c = Workers.Confusion.labels d
             &&
             let l = Workers.Confusion.labels c in
             let ok = ref true in
             for j = 0 to l - 1 do
               for k = 0 to l - 1 do
                 if
                   Workers.Confusion.prob c ~truth:j ~vote:k
                   <> Workers.Confusion.prob d ~truth:j ~vote:k
                 then ok := false
               done
             done;
             !ok)
           x y
  | _ -> false

let pp ppf = function
  | Binary p -> Format.fprintf ppf "binary:%a" Workers.Pool.pp p
  | Matrix a ->
      Format.fprintf ppf "matrix(l=%d)[%a]" (labels (Matrix a))
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           Workers.Confusion.pp)
        (Array.to_list a)
