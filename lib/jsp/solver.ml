type 'jury result = {
  jury : 'jury;
  score : float;
  evaluations : int;
  cache : Objective_cache.stats option;
}

let best a b = if b.score > a.score then b else a

let map_jury f r =
  { jury = f r.jury; score = r.score; evaluations = r.evaluations; cache = r.cache }
