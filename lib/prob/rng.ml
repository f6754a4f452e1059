(* The four xoshiro256** state words live in one 32-byte buffer, read and
   written as little-endian int64s.  Mutable [int64] record fields box on
   every write; [Bytes.get_int64_le]/[set_int64_le] compile to unboxed
   loads and stores, so a draw allocates nothing. *)
type t = Bytes.t

let[@inline] get g i = Bytes.get_int64_le g (8 * i)
let[@inline] set g i v = Bytes.set_int64_le g (8 * i) v

(* splitmix64: expands an integer seed into well-mixed 64-bit words, the
   recommended way to initialize xoshiro state. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix start =
  let state = ref start in
  let g = Bytes.create 32 in
  for i = 0 to 3 do
    set g i (splitmix64_next state)
  done;
  g

let create seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 1 and s2 = get g 2 and s3 = get g 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set g 0 s0;
  set g 1 s1;
  set g 2 (logxor s2 t);
  set g 3 (rotl s3 45);
  result

let fingerprint g =
  (* Reads the state words without advancing the stream: two generators have
     equal fingerprints iff their future outputs coincide. *)
  Printf.sprintf "%Lx.%Lx.%Lx.%Lx" (get g 0) (get g 1) (get g 2) (get g 3)

let split g =
  (* Reseed a fresh generator from the parent's stream; splitmix64 mixing
     decorrelates the child from the parent's continuation. *)
  of_splitmix (bits64 g)

(* Rejection sampling on the top 62 bits (OCaml ints are 63-bit, so a
   63-bit value could come out negative) avoids modulo bias.  A top-level
   loop rather than a local closure, so a draw allocates nothing. *)
let rec draw_below g bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw_below g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below g bound

let unit_float g =
  (* 53 uniform bits mapped to [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int r *. 0x1p-53

let float g bound = unit_float g *. bound
let bool g = Int64.logand (bits64 g) 1L = 1L
let bernoulli g p = unit_float g < p

let gaussian g ~mu ~sigma =
  let rec nonzero () =
    let u = unit_float g in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = unit_float g in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mu +. (sigma *. z)

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose g arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int g (Array.length arr))

let sample_without_replacement g k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let pool = Array.copy arr in
  (* Partial Fisher–Yates: the first k slots end up as the sample. *)
  for i = 0 to k - 1 do
    let j = i + int g (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
