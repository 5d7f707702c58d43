(* CDCL solver.  Internal literal encoding: lit = 2*var for the positive
   literal, 2*var+1 for the negative one ("negated if odd"), so arrays
   can be indexed by literal directly.  External literals are ±var.

   The search allocates nothing and writes no pointer into the heap:

   - Clauses live in one growable [int array], the arena.  A clause
     reference ("cref") is the offset of the clause's header word,
     which packs the size with the learnt, activation and deleted bits.
     The next word is the clause number, an index into the unboxed
     [cla_act] activities; the literals follow inline, the first two
     being the watched ones.  Deleted clauses stay in place until
     their words exceed half the arena, when [compact] rebuilds it.
   - Watch lists are per-literal int vectors of crefs, [reason] holds a
     cref or -1, and [assign] is indexed by literal.

   Every ordering the search depends on (watch lists, the clause and
   learnt lists, literal order inside clauses) is the one a cons-list
   layout gives, with a vector's last element as the list head, so
   conflicts, decisions and propagations match that layout's search
   exactly (the test [designs:search-pin] holds them).  See
   [propagate] for how a watch visit keeps that order. *)

type vec = { mutable data : int array; mutable size : int }

let vec_create () = { data = [||]; size = 0 }

let vec_push v x =
  let n = v.size in
  if n = Array.length v.data then begin
    let d = Array.make (max 4 (2 * n)) 0 in
    Array.blit v.data 0 d 0 n;
    v.data <- d
  end;
  v.data.(n) <- x;
  v.size <- n + 1

(* reverses a.(lo .. hi-1) in place *)
let reverse (a : int array) lo hi =
  let i = ref lo and j = ref (hi - 1) in
  while !i < !j do
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    incr i;
    decr j
  done

(* clause header bits; the size sits above them *)
let learnt_bit = 1
let activation_bit = 2
let deleted_bit = 4
let size_shift = 3

(* an all-float record is stored unboxed, so bumping never allocates *)
type increments = { mutable var_inc : float; mutable cla_inc : float }

type t = {
  mutable n_vars : int;
  mutable arena : int array;
  mutable arena_top : int; (* first free word *)
  mutable wasted : int; (* words held by deleted clauses *)
  mutable cla_act : float array; (* by clause number *)
  mutable n_numbered : int; (* next clause number *)
  clauses : vec; (* problem clauses, oldest first *)
  learnts : vec; (* oldest first *)
  mutable watches : vec array; (* indexed by internal literal *)
  mutable assign : int array; (* per literal: 0 undef / 1 true / 2 false *)
  mutable level : int array;
  mutable reason : int array; (* per var: cref, or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  mutable heap : int array; (* binary max-heap of vars *)
  mutable heap_pos : int array; (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable trail : int array; (* internal literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* start of each decision level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  inc : increments;
  mutable unsat : bool; (* top-level conflict detected *)
  mutable solved : result option;
  mutable seen : bool array; (* scratch for analyze *)
  learnt_buf : vec; (* the clause [analyze] derives *)
  (* statistics *)
  mutable n_clauses : int;
  mutable n_activation : int; (* activation clauses among n_clauses *)
  mutable n_learnts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable learnt_literals : int;
}

and result = Sat | Unsat

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999
let initial_arena = 256

let create () =
  {
    n_vars = 0;
    arena = Array.make initial_arena 0;
    arena_top = 0;
    wasted = 0;
    cla_act = Array.make 16 0.0;
    n_numbered = 0;
    clauses = vec_create ();
    learnts = vec_create ();
    watches = Array.init 16 (fun _ -> vec_create ());
    assign = Array.make 16 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_size = 0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    inc = { var_inc = 1.0; cla_inc = 1.0 };
    unsat = false;
    solved = None;
    seen = Array.make 8 false;
    learnt_buf = { data = Array.make 16 0; size = 0 };
    n_clauses = 0;
    n_activation = 0;
    n_learnts = 0;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learnt_literals = 0;
  }

(* literal helpers *)
let pos v = 2 * v
let neg_of l = l lxor 1
let var_of l = l lsr 1
let is_neg l = l land 1 = 1

let internal_of_ext s l =
  let v = abs l in
  if v = 0 || v > s.n_vars then
    invalid_arg (Printf.sprintf "Sat: unknown literal %d" l);
  if l > 0 then pos v else pos v + 1

let grow_array a n default =
  let len = Array.length a in
  if n <= len then a
  else begin
    let a' = Array.make (max n (2 * len)) default in
    Array.blit a 0 a' 0 len;
    a'
  end

let new_var s =
  let v = s.n_vars + 1 in
  s.n_vars <- v;
  let n = v + 1 in
  s.assign <- grow_array s.assign (2 * n) 0;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n (-1);
  s.activity <- grow_array s.activity n 0.0;
  s.phase <- grow_array s.phase n false;
  s.heap <- grow_array s.heap n 0;
  s.heap_pos <- grow_array s.heap_pos n (-1);
  s.trail <- grow_array s.trail n 0;
  s.trail_lim <- grow_array s.trail_lim n 0;
  s.seen <- grow_array s.seen n false;
  let len = Array.length s.watches in
  if 2 * n > len then
    s.watches <-
      Array.init
        (max (2 * n) (2 * len))
        (fun l -> if l < len then s.watches.(l) else vec_create ());
  (* insert into the order heap *)
  s.heap.(s.heap_size) <- v;
  s.heap_pos.(v) <- s.heap_size;
  s.heap_size <- s.heap_size + 1;
  (* sift up not needed: activity 0 *)
  v

let num_vars s = s.n_vars
let num_clauses s = s.n_clauses
let num_activation_clauses s = s.n_activation
let num_problem_clauses s = s.n_clauses - s.n_activation

(* value of an internal literal: 0 undef / 1 true / 2 false *)
let lit_value s l = s.assign.(l)

(* --- clause arena --- *)

let clause_size s c = s.arena.(c) lsr size_shift
let is_deleted s c = s.arena.(c) land deleted_bit <> 0
let is_learnt s c = s.arena.(c) land learnt_bit <> 0
let is_activation s c = s.arena.(c) land activation_bit <> 0
let clause_activity s c = s.cla_act.(s.arena.(c + 1))

(* appends a clause of [n] literals taken from [lits] and returns its cref *)
let alloc_clause s ~flags (lits : int array) n activity =
  let top = s.arena_top + 2 + n in
  if top > Array.length s.arena then begin
    let a = Array.make (max top (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  let c = s.arena_top and k = s.n_numbered in
  if k = Array.length s.cla_act then begin
    let a = Array.make (2 * k) 0.0 in
    Array.blit s.cla_act 0 a 0 k;
    s.cla_act <- a
  end;
  s.cla_act.(k) <- activity;
  s.n_numbered <- k + 1;
  s.arena.(c) <- (n lsl size_shift) lor flags;
  s.arena.(c + 1) <- k;
  Array.blit lits 0 s.arena (c + 2) n;
  s.arena_top <- top;
  c

let mark_deleted s c =
  s.arena.(c) <- s.arena.(c) lor deleted_bit;
  s.wasted <- s.wasted + 2 + clause_size s c

(* Rebuilds the arena without deleted clauses, in the same order, and
   renumbers the survivors.  The old arena's number word then holds the
   forwarding cref (-1 for a deleted clause), through which watches,
   reasons and the clause lists are remapped; relative order in every
   list is kept, so the search cannot tell a compaction happened. *)
let compact s =
  let old = s.arena and top = s.arena_top in
  let arena = Array.make (max initial_arena (2 * (top - s.wasted))) 0 in
  let act = s.cla_act in
  let c = ref 0 and dst = ref 0 and k = ref 0 in
  while !c < top do
    let hdr = old.(!c) in
    let len = 2 + (hdr lsr size_shift) in
    if hdr land deleted_bit = 0 then begin
      Array.blit old !c arena !dst len;
      arena.(!dst + 1) <- !k;
      (* numbers follow arena order, so [!k] never passes the old one *)
      act.(!k) <- act.(old.(!c + 1));
      old.(!c + 1) <- !dst;
      dst := !dst + len;
      incr k
    end
    else old.(!c + 1) <- -1;
    c := !c + len
  done;
  let remap v =
    let j = ref 0 in
    for i = 0 to v.size - 1 do
      let c' = old.(v.data.(i) + 1) in
      if c' >= 0 then begin
        v.data.(!j) <- c';
        incr j
      end
    done;
    v.size <- !j
  in
  Array.iter remap s.watches;
  remap s.clauses;
  remap s.learnts;
  for v = 1 to s.n_vars do
    let r = s.reason.(v) in
    if r >= 0 then s.reason.(v) <- old.(r + 1)
  done;
  s.arena <- arena;
  s.arena_top <- !dst;
  s.wasted <- 0;
  s.n_numbered <- !k;
  if Ilv_obs.Obs.enabled () then Ilv_obs.Obs.count "sat.compactions" 1

let maybe_compact s = if 2 * s.wasted > s.arena_top then compact s

(* --- order heap (max-heap on activity) --- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    sift_down s 0
  end;
  v

(* --- activities --- *)

let rescale_var_activity s =
  for v = 1 to s.n_vars do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.inc.var_inc <- s.inc.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.inc.var_inc;
  if s.activity.(v) > 1e100 then rescale_var_activity s;
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

let decay_var_activity s = s.inc.var_inc <- s.inc.var_inc *. var_decay

(* Between incremental queries: raise the increment so the next query's
   conflict bumps dwarf activity accumulated by earlier (retired)
   queries.  Stale order survives only as a tie-break, which is the
   fresh-solver behaviour heterogeneous sibling queries want, while a
   hot frame variable re-earns its rank in a few conflicts.  The
   rescale guard keeps repeated aging from overflowing. *)
let age_activity s =
  s.inc.var_inc <- s.inc.var_inc *. 1e20;
  if s.inc.var_inc > 1e100 then rescale_var_activity s

(* Any clause may be bumped, but only learnt activities are rescaled:
   problem clauses never compete in [reduce_db]. *)
let bump_clause s c =
  let act = s.cla_act and k = s.arena.(c + 1) in
  act.(k) <- act.(k) +. s.inc.cla_inc;
  if act.(k) > 1e20 then begin
    let l = s.learnts in
    for i = 0 to l.size - 1 do
      let k = s.arena.(l.data.(i) + 1) in
      act.(k) <- act.(k) *. 1e-20
    done;
    s.inc.cla_inc <- s.inc.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.inc.cla_inc <- s.inc.cla_inc *. cla_decay

(* --- assignment --- *)

let decision_level s = s.trail_lim_size

let enqueue s l reason =
  let v = var_of l in
  s.assign.(l) <- 1;
  s.assign.(neg_of l) <- 2;
  s.level.(v) <- s.trail_lim_size;
  s.reason.(v) <- reason;
  s.phase.(v) <- not (is_neg l);
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      s.assign.(l) <- 0;
      s.assign.(neg_of l) <- 0;
      s.reason.(var_of l) <- -1;
      heap_insert s (var_of l)
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

(* --- propagation --- *)

(* unchecked accesses for [propagate], whose indices the arena
   invariants bound: crefs point at headers below [arena_top], literals
   index [assign], and watch positions stay within the vector *)
let[@inline] iget (a : int array) i = Array.unsafe_get a i
let[@inline] iset (a : int array) i x = Array.unsafe_set a i x

let attach s c =
  vec_push s.watches.(neg_of s.arena.(c + 2)) c;
  vec_push s.watches.(neg_of s.arena.(c + 3)) c

(* Propagates all enqueued facts and returns the falsified clause's
   cref, or -1.  A clause sits in [watches.(l)] when the falsification
   of one of its watched literals should trigger a visit, i.e. clause c
   is in watches.(neg lit0) and watches.(neg lit1).

   Watch order is that of a list whose head is the vector's last
   element: a visit runs from the top down, and each kept watcher is
   packed downward from the top, so after the visit the kept block
   sits above the unvisited rest (empty unless a conflict stopped the
   visit).  Blitting the block onto the rest and reversing the whole
   prefix yields exactly [kept_in_visit_order @ rev rest] read from the
   bottom, the list [rev_append rest (rev kept)].  New watchers are
   pushed on top, the head.  The visited list itself never grows while
   it is visited: a new watch literal is never false, so it never
   files the clause under [p]. *)
let propagate s =
  let confl = ref (-1) in
  let arena = s.arena and assign = s.assign in
  while !confl < 0 && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(p) in
    let data = ws.data and n = ws.size in
    let false_lit = neg_of p in
    let i = ref (n - 1) and j = ref (n - 1) and rest = ref 0 in
    while !i >= 0 do
      let c = iget data !i in
      decr i;
      let hdr = iget arena c in
      if hdr land deleted_bit = 0 then begin
        (* make sure the false literal is at position 1 *)
        let l0 = c + 2 in
        if iget arena l0 = false_lit then begin
          iset arena l0 (iget arena (l0 + 1));
          iset arena (l0 + 1) false_lit
        end;
        if iget assign (iget arena l0) = 1 then begin
          (* satisfied; keep watching *)
          iset data !j c;
          decr j
        end
        else begin
          (* look for a new literal to watch *)
          let stop = l0 + (hdr lsr size_shift) in
          let k = ref (l0 + 2) in
          while !k < stop && iget assign (iget arena !k) = 2 do
            incr k
          done;
          if !k < stop then begin
            let w = iget arena !k in
            iset arena (l0 + 1) w;
            iset arena !k false_lit;
            vec_push s.watches.(neg_of w) c
          end
          else begin
            (* unit or conflicting *)
            iset data !j c;
            decr j;
            if iget assign (iget arena l0) = 2 then begin
              confl := c;
              s.qhead <- s.trail_size;
              (* leave the unvisited rest [0, i] in place *)
              rest := !i + 1;
              i := -1
            end
            else enqueue s (iget arena l0) c
          end
        end
      end
    done;
    let kept = n - 1 - !j in
    Array.blit data (!j + 1) data !rest kept;
    reverse data 0 (!rest + kept);
    ws.size <- !rest + kept
  done;
  !confl

(* --- clause addition (level 0 only) --- *)

let add_clause ?(activation = false) s ext_lits =
  (* incremental use: drop any previous search state and model *)
  cancel_until s 0;
  s.solved <- None;
  if not s.unsat then begin
    let lits = List.map (internal_of_ext s) ext_lits in
    (* dedup, drop false lits (level 0), detect tautology/satisfied *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (neg_of l) lits) lits
      || List.exists (fun l -> lit_value s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> 2) lits in
      match lits with
      | [] -> s.unsat <- true
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.unsat <- true
      | _ ->
        let lits = Array.of_list lits in
        let flags = if activation then activation_bit else 0 in
        let c = alloc_clause s ~flags lits (Array.length lits) 0.0 in
        vec_push s.clauses c;
        s.n_clauses <- s.n_clauses + 1;
        if activation then s.n_activation <- s.n_activation + 1;
        attach s c
    end
  end

(* --- level-0 simplification --- *)

(* Visits [v] from the top (the list head) down and replaces each entry
   [c] by [f c], dropping it when that is -1; the survivors keep their
   relative order.  [f] must not push onto [v]. *)
let filter_vec v f =
  let n = v.size in
  let j = ref n in
  for i = n - 1 downto 0 do
    let c = f v.data.(i) in
    if c >= 0 then begin
      decr j;
      v.data.(!j) <- c
    end
  done;
  Array.blit v.data !j v.data 0 (n - !j);
  v.size <- n - !j

(* SatELite-lite: runs only at decision level 0.  Unit propagation to
   fixpoint, removal of satisfied clauses, stripping of false literals
   (rebuilding the clause so the watch invariant holds), then duplicate
   elimination and light backward subsumption over the problem clauses.
   Deleting a clause that is the reason of a level-0 assignment is safe:
   conflict analysis never dereferences level-0 reasons, and level 0 is
   never backtracked; reasons are cleared anyway, so that compaction
   never has to forward them.
   [~subsume:false] skips the quadratic-ish dedup/subsumption stage and
   keeps only the linear propagation passes — cheap enough to run
   between incremental queries, where its job is shedding clauses
   satisfied by retire units rather than deep preprocessing. *)
let simplify ?(subsume = true) s =
  cancel_until s 0;
  s.solved <- None;
  let before = s.n_clauses + s.n_learnts in
  let delete c =
    if is_learnt s c then s.n_learnts <- s.n_learnts - 1
    else begin
      s.n_clauses <- s.n_clauses - 1;
      if is_activation s c then s.n_activation <- s.n_activation - 1
    end;
    mark_deleted s c
  in
  let count_in c =
    if is_learnt s c then s.n_learnts <- s.n_learnts + 1
    else begin
      s.n_clauses <- s.n_clauses + 1;
      if is_activation s c then s.n_activation <- s.n_activation + 1
    end
  in
  if not s.unsat then begin
    if propagate s >= 0 then s.unsat <- true;
    (* satisfied-clause removal + false-literal stripping, repeated
       until strengthening stops producing new level-0 units *)
    let changed = ref (not s.unsat) in
    while !changed do
      changed := false;
      let strengthen c =
        if s.unsat || is_deleted s c then -1
        else begin
          let n = clause_size s c in
          let satisfied = ref false and live = ref 0 in
          for i = c + 2 to c + 1 + n do
            match lit_value s s.arena.(i) with
            | 1 -> satisfied := true
            | 2 -> ()
            | _ -> incr live
          done;
          if !satisfied then begin
            delete c;
            -1
          end
          else if !live = n then c
          else begin
            let flags = s.arena.(c) land (learnt_bit lor activation_bit) in
            let lits = Array.make !live 0 and k = ref 0 in
            for i = c + 2 to c + 1 + n do
              if lit_value s s.arena.(i) <> 2 then begin
                lits.(!k) <- s.arena.(i);
                incr k
              end
            done;
            delete c;
            changed := true;
            match !live with
            | 0 ->
              s.unsat <- true;
              -1
            | 1 ->
              enqueue s lits.(0) (-1);
              if propagate s >= 0 then s.unsat <- true;
              -1
            | _ ->
              let c' = alloc_clause s ~flags lits !live (clause_activity s c) in
              count_in c';
              attach s c';
              c'
          end
        end
      in
      filter_vec s.clauses strengthen;
      filter_vec s.learnts strengthen
    done;
    (* level-0 reasons are never inspected again; drop them *)
    let level0_bound =
      if s.trail_lim_size > 0 then s.trail_lim.(0) else s.trail_size
    in
    for i = 0 to level0_bound - 1 do
      s.reason.(var_of s.trail.(i)) <- -1
    done;
    if subsume && not s.unsat then begin
      (* duplicate elimination + backward subsumption (problem clauses
         only; subsumers capped at 8 literals to bound the scan) *)
      let canon c =
        let a = Array.sub s.arena (c + 2) (clause_size s c) in
        Array.sort compare a;
        a
      in
      (* newest first, as the clause list has always been scanned *)
      let keyed = ref [] in
      for i = 0 to s.clauses.size - 1 do
        let c = s.clauses.data.(i) in
        if not (is_deleted s c) then keyed := (c, canon c) :: !keyed
      done;
      let keyed = !keyed in
      let tbl = Hashtbl.create (max 16 (List.length keyed)) in
      List.iter
        (fun (c, k) ->
          let key = Array.to_list k in
          if Hashtbl.mem tbl key then delete c else Hashtbl.add tbl key ())
        keyed;
      let keyed = List.filter (fun (c, _) -> not (is_deleted s c)) keyed in
      let occ = Array.make ((2 * s.n_vars) + 2) [] in
      List.iter
        (fun ck -> Array.iter (fun l -> occ.(l) <- ck :: occ.(l)) (snd ck))
        keyed;
      (* [subset a b]: sorted literal arrays, is a ⊆ b? *)
      let subset a b =
        let na = Array.length a and nb = Array.length b in
        let rec go i j =
          if i >= na then true
          else if j >= nb then false
          else if a.(i) = b.(j) then go (i + 1) (j + 1)
          else if a.(i) > b.(j) then go i (j + 1)
          else false
        in
        go 0 0
      in
      List.iter
        (fun (c, k) ->
          if (not (is_deleted s c)) && Array.length k <= 8 then begin
            let rarest = ref k.(0) in
            Array.iter
              (fun l ->
                if List.length occ.(l) < List.length occ.(!rarest) then
                  rarest := l)
              k;
            List.iter
              (fun (d, kd) ->
                if
                  d <> c
                  && (not (is_deleted s d))
                  && Array.length kd > Array.length k
                  && subset k kd
                then delete d)
              occ.(!rarest)
          end)
        keyed
    end;
    maybe_compact s
  end;
  max 0 (before - (s.n_clauses + s.n_learnts))

(* --- conflict analysis (first UIP) --- *)

(* Derives the first-UIP clause of conflict [confl] into [learnt_buf]
   and returns the backtrack level.  The asserting literal comes first,
   then the lower-level literals, latest found first. *)
let analyze s confl =
  let arena = s.arena and seen = s.seen and level = s.level in
  let buf = s.learnt_buf in
  (* slot 0 is kept for the asserting literal *)
  buf.size <- 1;
  let counter = ref 0 and bt_level = ref 0 in
  let c = ref confl and start = ref 0 in
  let index = ref (s.trail_size - 1) in
  let uip = ref (-1) in
  while !uip < 0 do
    bump_clause s !c;
    let base = !c + 2 in
    (* past the first round, skip lit 0: it is the literal just
       resolved on (the reason clause's propagated literal) *)
    for i = base + !start to base + clause_size s !c - 1 do
      let q = arena.(i) in
      let v = var_of q in
      if (not seen.(v)) && level.(v) > 0 then begin
        seen.(v) <- true;
        bump_var s v;
        if level.(v) >= decision_level s then incr counter
        else begin
          vec_push buf q;
          if level.(v) > !bt_level then bt_level := level.(v)
        end
      end
    done;
    start := 1;
    (* find the next literal on the trail that is marked *)
    while not seen.(var_of s.trail.(!index)) do
      decr index
    done;
    let q = s.trail.(!index) in
    let v = var_of q in
    seen.(v) <- false;
    decr counter;
    decr index;
    if !counter = 0 then uip := q
    else begin
      (* decision variables end the loop via counter *)
      let r = s.reason.(v) in
      assert (r >= 0);
      (* orient so that lit 0 is q, skipped in the next round *)
      let base = r + 2 in
      if arena.(base) <> q then begin
        let j = ref 0 in
        for i = 0 to clause_size s r - 1 do
          if arena.(base + i) = q then j := i
        done;
        arena.(base + !j) <- arena.(base);
        arena.(base) <- q
      end;
      c := r
    end
  done;
  reverse buf.data 1 buf.size;
  buf.data.(0) <- neg_of !uip;
  for i = 1 to buf.size - 1 do
    seen.(var_of buf.data.(i)) <- false
  done;
  !bt_level

(* Adds the clause in [learnt_buf] and asserts its first literal. *)
let record_learnt s =
  let lits = s.learnt_buf.data and n = s.learnt_buf.size in
  s.learnt_literals <- s.learnt_literals + n;
  if n = 1 then enqueue s lits.(0) (-1)
  else begin
    (* watch the asserting literal and one literal from the backtrack
       level (position of max level among lits 1..) *)
    let maxi = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(var_of lits.(i)) > s.level.(var_of lits.(!maxi)) then
        maxi := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!maxi);
    lits.(!maxi) <- tmp;
    let c = alloc_clause s ~flags:learnt_bit lits n 0.0 in
    vec_push s.learnts c;
    s.n_learnts <- s.n_learnts + 1;
    bump_clause s c;
    attach s c;
    enqueue s lits.(0) c
  end

(* --- learnt clause DB reduction --- *)

let locked s c =
  (* a clause that is the reason of a current assignment must stay *)
  let l = s.arena.(c + 2) in
  lit_value s l = 1 && s.reason.(var_of l) = c

let reduce_db s =
  let l = s.learnts in
  let n = l.size in
  (* newest first: the order the (unstable) sort has always been fed *)
  let arr = Array.init n (fun i -> l.data.(n - 1 - i)) in
  Array.sort
    (fun a b -> Float.compare (clause_activity s a) (clause_activity s b))
    arr;
  let kill = ref (n / 2) in
  Array.iteri
    (fun i c ->
      if i < n / 2 && !kill > 0 && (not (locked s c)) && clause_size s c > 2
      then begin
        mark_deleted s c;
        decr kill
      end)
    arr;
  filter_vec l (fun c -> if is_deleted s c then -1 else c);
  s.n_learnts <- l.size;
  if Ilv_obs.Obs.enabled () then Ilv_obs.Obs.count "sat.reductions" 1;
  (* watchers of deleted clauses are dropped lazily during propagation,
     or all at once by a compaction *)
  maybe_compact s

(* --- search --- *)

(* Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...; [x] is the
   0-based index (classic MiniSat formulation). *)
let luby x =
  let rec grow size seq = if size < x + 1 then grow ((2 * size) + 1) (seq + 1) else (size, seq) in
  let rec locate size seq x =
    if size - 1 = x then seq
    else begin
      let size = (size - 1) / 2 in
      locate size (seq - 1) (x mod size)
    end
  in
  let size, seq = grow 1 0 in
  1 lsl locate size seq x

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then 0
    else begin
      let v = heap_pop s in
      if s.assign.(pos v) = 0 then v else go ()
    end
  in
  go ()

(* --- resource limits --- *)

type limit = {
  max_conflicts : int option;
  max_propagations : int option;
  max_wall_s : float option;
  deadline_s : float option;
}

let no_limit =
  {
    max_conflicts = None;
    max_propagations = None;
    max_wall_s = None;
    deadline_s = None;
  }

let limit ?conflicts ?propagations ?wall_s ?deadline_s () =
  {
    max_conflicts = conflicts;
    max_propagations = propagations;
    max_wall_s = wall_s;
    deadline_s;
  }

let scale_limit factor l =
  let scale = Option.map (fun n -> n * factor) in
  {
    max_conflicts = scale l.max_conflicts;
    max_propagations = scale l.max_propagations;
    max_wall_s = Option.map (fun w -> w *. float_of_int factor) l.max_wall_s;
    (* an absolute deadline never scales: escalation retries may grow
       their per-call budgets, but the group's wall clock is fixed *)
    deadline_s = l.deadline_s;
  }

type outcome = Result of result | Unknown of string

(* Incremental solving: re-solvable after further add_clause calls.
   Assumptions are installed as the first decision levels (the MiniSat
   scheme): whenever the decision level is below the number of
   assumptions, the next assumption literal is decided (or a fresh
   level is opened if it already holds); an assumption found false
   makes the instance unsat *under the assumptions*.

   Limits are per-call and soft: they are checked between propagation
   rounds, so the solver may overshoot by one BCP pass. *)
let solve_bounded ?(assumptions = []) ?(limit = no_limit) s =
  cancel_until s 0;
  s.solved <- None;
  let assumption_lits =
    Array.of_list (List.map (internal_of_ext s) assumptions)
  in
  let conflicts0 = s.conflicts and propagations0 = s.propagations in
  let decisions0 = s.decisions and restarts0 = s.restarts in
  let t_start = Unix.gettimeofday () in
  let deadline =
    Option.map (fun w -> Unix.gettimeofday () +. w) limit.max_wall_s
  in
  let exhausted () =
    match limit.max_conflicts with
    | Some b when s.conflicts - conflicts0 >= b ->
      Some (Printf.sprintf "conflict budget exhausted (%d)" b)
    | _ -> (
      match limit.max_propagations with
      | Some b when s.propagations - propagations0 >= b ->
        Some (Printf.sprintf "propagation budget exhausted (%d)" b)
      | _ -> (
        match deadline with
        | Some d when Unix.gettimeofday () > d ->
          Some
            (Printf.sprintf "deadline exceeded (%.3fs)"
               (Option.get limit.max_wall_s))
        | _ -> (
          (* the absolute group deadline, timestamped so a sweep log
             shows when the query was cut off, not just that it was.
             "deadline:" is the structured sentinel
             {!Ilv_core.Checker.is_deadline_reason} keys on — free-form
             budget prose (including anything containing "timeout:")
             must never alias it *)
          match limit.deadline_s with
          | Some d when Unix.gettimeofday () > d ->
            Some
              (Printf.sprintf
                 "deadline: group deadline %.3f exceeded at %.3f (epoch s)" d
                 (Unix.gettimeofday ()))
          | _ -> None)))
  in
  let result =
    if s.unsat then Result Unsat
    else if propagate s >= 0 then begin
      (* a level-0 conflict (pending units): latch it *)
      s.unsat <- true;
      Result Unsat
    end
    else begin
      let restart_count = ref 0 in
      let answer = ref None in
      let new_level () =
        s.trail_lim.(s.trail_lim_size) <- s.trail_size;
        s.trail_lim_size <- s.trail_lim_size + 1
      in
      while Option.is_none !answer do
        let conflict_budget = 64 * luby !restart_count in
        incr restart_count;
        let conflicts_here = ref 0 in
        while Option.is_none !answer && !conflicts_here < conflict_budget do
          (match exhausted () with
          | Some reason -> answer := Some (Unknown reason)
          | None -> ());
          if Option.is_none !answer then begin
            let confl = propagate s in
            if confl >= 0 then begin
              s.conflicts <- s.conflicts + 1;
              incr conflicts_here;
              if decision_level s = 0 then begin
                (* conflict below every decision: unconditionally
                   unsatisfiable.  Latch it — the propagation queue
                   is already past the falsified clause, so without
                   the flag a later solve on this solver would never
                   revisit it and could answer a bogus [Sat]. *)
                s.unsat <- true;
                answer := Some (Result Unsat)
              end
              else if decision_level s <= Array.length assumption_lits then
                (* the conflict depends only on assumptions *)
                answer := Some (Result Unsat)
              else begin
                let bt = analyze s confl in
                (* backjumps may undo assumption levels; the decision
                   loop re-establishes them *)
                cancel_until s bt;
                record_learnt s;
                decay_var_activity s;
                decay_clause_activity s;
                if s.n_learnts > 4000 + (2 * s.n_clauses) then reduce_db s
              end
            end
            else if decision_level s < Array.length assumption_lits then begin
              let l = assumption_lits.(decision_level s) in
              match lit_value s l with
              | 1 -> new_level () (* already holds: placeholder level *)
              | 2 -> answer := Some (Result Unsat)
              | _ ->
                new_level ();
                enqueue s l (-1)
            end
            else begin
              let v = pick_branch_var s in
              if v = 0 then answer := Some (Result Sat)
              else begin
                s.decisions <- s.decisions + 1;
                new_level ();
                let l = if s.phase.(v) then pos v else pos v + 1 in
                enqueue s l (-1)
              end
            end
          end
        done;
        if Option.is_none !answer then begin
          (* restart, keeping the assumption prefix *)
          s.restarts <- s.restarts + 1;
          cancel_until s (min (decision_level s) (Array.length assumption_lits))
        end
      done;
      Option.get !answer
    end
  in
  (match result with
  | Result r -> s.solved <- Some r
  | Unknown _ ->
    (* give up cleanly: no model, and the next solve starts fresh *)
    cancel_until s 0;
    s.solved <- None);
  if Ilv_obs.Obs.enabled () then begin
    let open Ilv_obs.Obs in
    let decisions = s.decisions - decisions0
    and conflicts = s.conflicts - conflicts0
    and propagations = s.propagations - propagations0
    and restarts = s.restarts - restarts0 in
    event "sat.solve"
      [
        ( "outcome",
          S
            (match result with
            | Result Sat -> "sat"
            | Result Unsat -> "unsat"
            | Unknown reason -> "unknown: " ^ reason) );
        ("decisions", I decisions);
        ("conflicts", I conflicts);
        ("propagations", I propagations);
        ("restarts", I restarts);
        ("n_vars", I s.n_vars);
        ("n_clauses", I s.n_clauses);
        ("n_problem_clauses", I (s.n_clauses - s.n_activation));
        ("n_activation_clauses", I s.n_activation);
        ("limited", B (limit != no_limit));
        ("dur_s", F (Unix.gettimeofday () -. t_start));
      ];
    count "sat.solves" 1;
    count "sat.decisions" decisions;
    count "sat.conflicts" conflicts;
    count "sat.propagations" propagations;
    count "sat.restarts" restarts
  end;
  result

let solve ?assumptions s =
  match solve_bounded ?assumptions ~limit:no_limit s with
  | Result r -> r
  | Unknown _ -> assert false (* impossible without a limit *)

let value s v =
  match s.solved with
  | Some Sat ->
    if v < 1 || v > s.n_vars then invalid_arg "Sat.value: unknown variable";
    s.assign.(pos v) = 1
  | Some Unsat | None -> invalid_arg "Sat.value: no model available"

let export s =
  let ext l = (if is_neg l then -1 else 1) * var_of l in
  let level0_bound =
    if s.trail_lim_size > 0 then s.trail_lim.(0) else s.trail_size
  in
  let units = List.init level0_bound (fun i -> [ ext s.trail.(i) ]) in
  (* oldest first *)
  let clauses = ref [] in
  for i = s.clauses.size - 1 downto 0 do
    let c = s.clauses.data.(i) in
    if not (is_deleted s c) then
      clauses :=
        List.init (clause_size s c) (fun k -> ext s.arena.(c + 2 + k))
        :: !clauses
  done;
  (* a top-level conflict discovered during clause addition has no
     stored witness clause: export it as the empty clause *)
  let contradiction = if s.unsat then [ [] ] else [] in
  (s.n_vars, contradiction @ units @ !clauses)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
}

let stats (s : t) =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    restarts = s.restarts;
    learnt_literals = s.learnt_literals;
  }
