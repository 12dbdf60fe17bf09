type heuristic = Paper_heuristic | First_free | No_new_place

type t = {
  f2 : float;
  careful_writing : bool;
  swap_pass : bool;
  shrink_pass : bool;
  heuristic : heuristic;
  stable_every : int;
  scan_pacing : int;
  switch_wait : int;
  io_pacing : int;
  lambda_switch : bool;
  unit_pages : int;
  catchup_batch : int;
  olc : bool;
}

let default =
  {
    f2 = 0.9;
    careful_writing = true;
    swap_pass = true;
    shrink_pass = true;
    heuristic = Paper_heuristic;
    stable_every = 5;
    scan_pacing = 1;
    switch_wait = 200;
    io_pacing = 0;
    lambda_switch = false;
    unit_pages = 1;
    catchup_batch = 16;
    olc = Btree.Access.olc_default;
  }

let paper = { default with olc = false }

let heuristic_name = function
  | Paper_heuristic -> "paper"
  | First_free -> "first-free"
  | No_new_place -> "no-new-place"

let pp ppf t =
  Format.fprintf ppf
    "f2=%.2f careful=%b swap=%b shrink=%b heuristic=%s stable-every=%d"
    t.f2 t.careful_writing t.swap_pass t.shrink_pass (heuristic_name t.heuristic) t.stable_every
