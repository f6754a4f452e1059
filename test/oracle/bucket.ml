(* The flat path of [Jq.Bucket.estimate_stats] with every scan over the
   whole [lo, hi] window, including the keys of the parity no mass can
   reach.  Tests check that the production kernel returns the same stats
   bit for bit. *)

open Jq

(* In-place co-sort of bk.(0..n-1) and cq.(0..n-1), decreasing by bucket
   then quality (Algorithm 1 steps 2-3 sort both arrays in decreasing
   order so pruning settles pairs as early as possible).  Heapsort on the
   parallel arrays: no allocation, and monomorphic Int/Float comparisons
   instead of polymorphic [compare] in the hot path. *)
let sort_desc bk cq n =
  let less i j =
    let c = Int.compare bk.(i) bk.(j) in
    if c <> 0 then c < 0 else Float.compare cq.(i) cq.(j) < 0
  in
  let swap i j =
    let tb = bk.(i) in
    bk.(i) <- bk.(j);
    bk.(j) <- tb;
    let tq = cq.(i) in
    cq.(i) <- cq.(j);
    cq.(j) <- tq
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && less l (l + 1) then l + 1 else l in
      if less i c then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done;
  let i = ref 0 and j = ref (n - 1) in
  while !i < !j do
    swap !i !j;
    incr i;
    decr j
  done

(* Dense kernel.  Keys live in [-S, S] with S = agg.(0) = sum of all
   buckets, so the whole mass map is a flat array of 2S+1 cells indexed by
   key + S.  [lo, hi] tracks the current support bounds (both bounds
   always straddle 0, so the window never empties); each worker zeroes the
   next window and convolves the two shifted copies into it.  Algorithm
   2's pruning becomes index-range clamping: mass at keys the remaining
   swing r = agg.(i) can no longer flip (key > r settles to fraction 1,
   key < -r to fraction 0) leaves the window before the scan. *)
let run_flat ~ws ~pruning ~n ~bk ~cq ~agg =
  let off = agg.(0) in
  let size = (2 * off) + 1 in
  let a, b = Workspace.dp ws size in
  a.(off) <- 1.0;
  let cur = ref a and nxt = ref b in
  let lo = ref 0 and hi = ref 0 in
  let settled = Prob.Kahan.create () in
  let pruned_pairs = ref 0 in
  let max_cells = ref 1 in
  for i = 0 to n - 1 do
    let c = !cur and out = !nxt in
    let bkt = bk.(i) and q = cq.(i) in
    if pruning then begin
      let r = agg.(i) in
      if !hi > r then begin
        for k = max !lo (r + 1) to !hi do
          let p = c.(k + off) in
          if p <> 0. then begin
            incr pruned_pairs;
            Prob.Kahan.add settled p
          end
        done;
        hi := r
      end;
      if !lo < -r then begin
        for k = !lo to min !hi (-r - 1) do
          if c.(k + off) <> 0. then incr pruned_pairs
        done;
        lo := -r
      end
    end;
    let nlo = !lo - bkt and nhi = !hi + bkt in
    Array.fill out (nlo + off) (nhi - nlo + 1) 0.;
    let cells = ref 0 in
    let q1 = 1. -. q in
    for k = !lo to !hi do
      let p = c.(k + off) in
      if p <> 0. then begin
        let up = k + bkt + off and down = k - bkt + off in
        let u = out.(up) in
        if u = 0. then incr cells;
        out.(up) <- u +. (p *. q);
        let d = out.(down) in
        if d = 0. then incr cells;
        out.(down) <- d +. (p *. q1)
      end
    done;
    cur := out;
    nxt := c;
    lo := nlo;
    hi := nhi;
    if !cells > !max_cells then max_cells := !cells
  done;
  let acc = Prob.Kahan.create () in
  Prob.Kahan.add acc (Prob.Kahan.total settled);
  let c = !cur in
  if !lo <= 0 && 0 <= !hi then begin
    let p = c.(off) in
    if p <> 0. then Prob.Kahan.add acc (0.5 *. p)
  end;
  for k = max 1 !lo to !hi do
    let p = c.(k + off) in
    if p <> 0. then Prob.Kahan.add acc p
  done;
  let value = Float.min 1. (Float.max 0. (Prob.Kahan.total acc)) in
  (value, !max_cells, !pruned_pairs)

(* Core of Algorithm 1, after prior folding and canonicalization: the
   first n cells of cq hold qualities in [0.5, 1) and belong to the
   workspace, so the prologue may sort them in place. *)
let run ~ws ~num_buckets ~pruning ~n cq =
  let lg = Workspace.floats ws ~slot:1 n in
  let upper = ref 0. in
  for i = 0 to n - 1 do
    let phi = Prob.Log_space.logit cq.(i) in
    lg.(i) <- phi;
    if phi > !upper then upper := phi
  done;
  let upper = !upper in
  let delta = if upper = 0. then 0. else upper /. float_of_int num_buckets in
  let bk = Workspace.ints ws ~slot:0 n in
  for i = 0 to n - 1 do
    bk.(i) <-
      (if delta = 0. then 0
       else int_of_float (Float.ceil ((lg.(i) /. delta) -. 0.5)))
  done;
  sort_desc bk cq n;
  let agg = Workspace.ints ws ~slot:1 n in
  let running = ref 0 in
  for i = n - 1 downto 0 do
    running := !running + bk.(i);
    agg.(i) <- !running
  done;
  let value, max_map_size, pruned_pairs =
    run_flat ~ws ~pruning ~n ~bk ~cq ~agg
  in
  Bucket.{
    value;
    upper;
    delta;
    max_map_size;
    pruned_pairs;
    error_bound = Bounds.additive_bound ~upper ~num_buckets ~n;
  }

let trivial value =
  Bucket.{
    value;
    upper = 0.;
    delta = 0.;
    max_map_size = 0;
    pruned_pairs = 0;
    error_bound = 0.;
  }

let validate_quality q =
  if q < 0. || q > 1. || Float.is_nan q then
    invalid_arg "Bucket.estimate: quality outside [0, 1]"

let estimate_stats ?workspace
    ?(num_buckets = Bucket.default_num_buckets) ?(pruning = true)
    ?(high_quality_shortcut = true) ?(alpha = 0.5) qualities =
  if Array.length qualities = 0 then invalid_arg "Bucket.estimate: empty jury";
  if num_buckets <= 0 then invalid_arg "Bucket.estimate: num_buckets <= 0";
  Array.iter validate_quality qualities;
  if Prior.is_degenerate alpha then trivial 1.0
  else if alpha < 0. || alpha > 1. || Float.is_nan alpha then
    invalid_arg "Prior.fold: alpha outside [0, 1]"
  else
    Workspace.with_default workspace @@ fun ws ->
    (* Prior folding (Theorem 3) and canonicalization happen straight into
       workspace scratch: no intermediate arrays on the steady-state path. *)
    let n0 = Array.length qualities in
    let extra = if alpha = 0.5 then 0 else 1 in
    let n = n0 + extra in
    let cq = Workspace.floats ws ~slot:0 n in
    for i = 0 to n0 - 1 do
      let q = qualities.(i) in
      cq.(i) <- Float.max q (1. -. q)
    done;
    if extra = 1 then cq.(n0) <- Float.max alpha (1. -. alpha);
    let top = ref 0.5 in
    for i = 0 to n - 1 do
      if cq.(i) > !top then top := cq.(i)
    done;
    let top = !top in
    if top = 1. then trivial 1.0
    else if high_quality_shortcut && top > 0.99 then
      (* §4.4: JQ already exceeds this single quality (Lemma 1), which is
         within 1% of 1; avoid bucketing a near-unbounded logit range. *)
      { (trivial top) with Bucket.error_bound = 1. -. top }
    else run ~ws ~num_buckets ~pruning ~n cq
