(* Memoized jury scores keyed on the selection bitset.

   Simulated annealing revisits juries heavily late in cooling (low
   temperature rejects most moves, so the walk oscillates around a few
   states); for a fixed candidate pool the jury is exactly the selection
   bitset, so a score cache turns those revisits into hash lookups.  The
   table is bounded: on reaching capacity it is emptied wholesale (epoch
   eviction) — O(1) amortized, no LRU bookkeeping on the hot path, and the
   annealer immediately repopulates the handful of states it is actually
   oscillating between. *)

type stats = {
  hits : int;
  misses : int;
  evals_saved : int;
  entries : int;
  evictions : int;
}

type t = {
  n : int;                          (* candidate-pool size the keys cover *)
  capacity : int;
  table : (string, float) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) ~n () =
  if capacity <= 0 then invalid_arg "Objective_cache.create: capacity <= 0";
  if n < 0 then invalid_arg "Objective_cache.create: n < 0";
  {
    n;
    capacity;
    table = Hashtbl.create 256;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

type key = string

let bytes_for n = (n + 7) / 8

(* A salt is an opaque caller-chosen prefix: keys with different salts can
   never collide (the bitset always starts at the same offset for a given
   cache [n], and salts are fixed-length digests at the call sites), so one
   table safely serves solves whose scores would disagree — different
   objectives or priors, and for path-dependent accumulators different
   budgets or RNG trajectories, land in disjoint key spaces. *)
let pack ?(salt = "") t selected =
  if Array.length selected <> t.n then
    invalid_arg "Objective_cache: selection length mismatch";
  let off = String.length salt in
  let b = Bytes.make (off + bytes_for t.n) '\000' in
  Bytes.blit_string salt 0 b 0 off;
  for i = 0 to t.n - 1 do
    if selected.(i) then begin
      let byte = off + (i lsr 3) and bit = i land 7 in
      Bytes.unsafe_set b byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lor (1 lsl bit)))
    end
  done;
  b

let key ?salt t selected = Bytes.unsafe_to_string (pack ?salt t selected)

let flip ~off b i =
  let byte = off + (i lsr 3) and bit = i land 7 in
  Bytes.unsafe_set b byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lxor (1 lsl bit)))

(* The key of [selected] with positions [out] and [into] toggled — the
   annealer probes swap candidates without mutating its selection first. *)
let key_swapped ?(salt = "") t selected ~out ~into =
  let b = pack ~salt t selected in
  let off = String.length salt in
  flip ~off b out;
  flip ~off b into;
  Bytes.unsafe_to_string b

let find_or_eval t k f =
  match Hashtbl.find_opt t.table k with
  | Some v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      let v = f () in
      if Hashtbl.length t.table >= t.capacity then begin
        Hashtbl.reset t.table;
        t.evictions <- t.evictions + 1
      end;
      Hashtbl.replace t.table k v;
      v

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evals_saved = t.hits;
    entries = Hashtbl.length t.table;
    evictions = t.evictions;
  }

let stats_since t (before : stats) =
  {
    hits = t.hits - before.hits;
    misses = t.misses - before.misses;
    evals_saved = t.hits - before.hits;
    entries = Hashtbl.length t.table;
    evictions = t.evictions - before.evictions;
  }

let empty_stats = { hits = 0; misses = 0; evals_saved = 0; entries = 0; evictions = 0 }

let merge_stats (a : stats) (b : stats) =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evals_saved = a.evals_saved + b.evals_saved;
    entries = a.entries + b.entries;
    evictions = a.evictions + b.evictions;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits=%d misses=%d saved=%d entries=%d evictions=%d"
    s.hits s.misses s.evals_saved s.entries s.evictions
