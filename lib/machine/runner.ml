(* The run loops (DESIGN.md §13, §19, §20): the step loop and the decoded
   dispatch loop, the budgets, the output cap, the 1024-step poll slot
   and the post-injection detach handoff. *)

open State
open Semantics

type result = {
  status : status;
  output : string;
  steps : int64;
  cost : int64;
  truncated : bool; (* output was cut at the quota; never a golden match *)
  detached : bool; (* the run switched onto its detach plan's target *)
  drain_steps : int; (* attached steps executed to reach a mapped handoff pc *)
}

(* instrumented pc -> golden pc, one piece per run of mapped or dropped
   pcs, looked up by binary search ([Fimap.rank] / [Fimap.next]) *)
type handoff_map = Refine_backend.Fimap.handoff = { h_pcs : int array; h_ranks : int array }

type detach_plan = {
  plan_prog : dprogram;
      (* the target's weighted decode; its image shares the engine's
         extern table and heap base, so the handoff installs it in place *)
  plan_map : handoff_map; (* pc and return-address translation *)
}

exception Detach_signal
(* raised by the poll-slot check when [detach_req] is set and a plan is
   armed; [run] catches it, attempts the handoff, and continues on
   whichever code the attempt leaves installed *)

(* --- run loops (DESIGN.md §19) -------------------------------------------

   Both loops drive the same machine state [t] through [run]'s budget/quota
   envelope: execute instructions while the status is Running and the
   step/cost budgets hold, calling [check] at every 1024-step poll slot.
   [run] picks the decoded dispatch loop whenever a decoded program is
   installed (every engine the campaign layer hands out); the [step] loop
   runs engines without one and is the reference semantics the
   differential tests compare against. *)

(* the loops' while-condition *)
let[@inline always] live (t : t) ~max_steps ~max_cost =
  (match t.status with Running -> true | _ -> false) && t.steps < max_steps && t.cost < max_cost

let step_loop (t : t) ~max_steps ~max_cost ~check =
  while live t ~max_steps ~max_cost do
    step t;
    (* poll-slot cadence: plain int mask, no boxed arithmetic per step *)
    if t.steps land 1023 = 0 then check ()
  done

(* Threaded dispatch over the decoded closure table.  Per unhooked
   iteration: one bounds check, one hook check, one indirect call.
   [d_active] is re-read every iteration because [set_overlay] can switch
   the engine to its overlay table mid-run (the FI control library
   installs Instr_image overlays at the trigger).

   While a hook is attached the loop dispatches the engine's fusion-free
   table ([fusion_free], which an armed overlay writes its slot into) and
   does what [step] does around it: charge the
   hook's cost first, then call the hook after the instruction at a pc the
   hook declares, unless the instruction trapped.  A declared visit that
   finds the skip window open (decided before the instruction runs, so an
   instruction that publishes a window cannot skip its own visit) retires
   without the call and is banked in [fi_pending].  The closures' own
   poll-slot checks are disarmed meanwhile ([d_check] = [no_check]), and
   the loop runs the check after the hook, as [step_loop] does, so a hook
   that changes state at a poll slot is seen by that slot.

   One try frame wraps the whole loop instead of one per instruction; the
   handler replicates [step_loop]'s post-trap poll-slot check. *)
let decoded_loop (t : t) ~max_steps ~max_cost ~check =
  let p = t.priv in
  p.d_max_steps <- max_steps;
  p.d_max_cost <- max_cost;
  let len = Array.length t.image.L.code in
  let bad_pc pc =
    t.status <- Trapped (Bad_pc pc);
    if t.steps land 1023 = 0 then check ()
  in
  (try
     while live t ~max_steps ~max_cost do
       match t.post_hook with
       | None ->
         p.d_check <- check;
         while
           live t ~max_steps ~max_cost && match t.post_hook with None -> true | Some _ -> false
         do
           let pc = t.pc in
           if pc < 0 || pc >= len then bad_pc pc else (Array.unsafe_get p.d_active pc) t
         done
       | Some _ ->
         p.d_check <- no_check;
         let table = match t.dprog with Some dp -> fusion_free t dp | None -> [||] in
         while
           live t ~max_steps ~max_cost && match t.post_hook with Some _ -> true | None -> false
         do
           let pc = t.pc in
           if pc < 0 || pc >= len then bad_pc pc
           else begin
             (match t.post_hook with
             | None -> ()
             | Some h ->
               t.cost <- t.cost + h.hook_cost;
               if not h.hook_pcs.(pc) then (Array.unsafe_get table pc) t
               else if t.fi_skip > 0 then begin
                 (Array.unsafe_get table pc) t;
                 t.fi_skip <- t.fi_skip - 1;
                 t.fi_pending <- t.fi_pending + 1
               end
               else begin
                 (* the instruction as fetched, as [step] hands it over; an
                    undecodable overlay slot traps before its hook runs *)
                 let i =
                   if pc <> t.overlay_pc then Array.unsafe_get t.image.L.code pc
                   else match t.overlay_instr with Some i -> i | None -> M.Mhalt
                 in
                 (Array.unsafe_get table pc) t;
                 h.on_instr t pc i
               end);
             if t.steps land 1023 = 0 then check ()
           end
         done
     done
   with Halt_trap tr ->
     t.status <- Trapped tr;
     if t.steps land 1023 = 0 then check ());
  p.d_check <- no_check;
  p.d_max_steps <- max_int;
  p.d_max_cost <- max_int

(* Budgets arrive as int64 (the paper's cost model is 64-bit) but the hot
   loop compares native ints; anything at or above [max_int] means
   "unlimited". *)
let int_budget v = if Int64.compare v (Int64.of_int max_int) >= 0 then max_int else Int64.to_int v

(* [max_cost]: modeled-time budget (the 10x-profiling timeout of the
   paper's classification); [max_steps]: hard safety bound.

   [output_quota] (DESIGN.md §13): max output bytes.  The builtin whose
   write crosses it traps [Output_quota], which classification maps to
   Crash; the returned output is truncated to the quota and flagged so
   classification can never match a truncated prefix against the golden
   run.  The trip point is a program point, not a poll slot, so a
   detached run trips where the attached run would.  Every bound of a
   run is deterministic: steps, modeled cost, output bytes, and the arena
   (the allocator traps past the stack floor).

   [detach] (DESIGN.md §20): a post-injection handoff plan.  When the FI
   control library raises [t.detach_req] (the single injection has
   retired), the next poll slot switches the engine onto the plan's
   decode in place; everything but the code stays where it is, so the
   target must share the engine's extern table and heap base.  The
   engine first drains with [step] to the next original-instruction
   boundary, and live [Mcalli] return addresses are validated against the
   shadow call stack and rewritten, with the pc, into golden coordinates
   through the plan's correspondence map.  Any validation failure
   declines the handoff and the run simply continues attached — detach is
   an optimization, never a semantics change. *)
let run ?(max_steps = Int64.max_int) ?(max_cost = Int64.max_int) ?output_quota ?poll ?detach
    (t : t) : result =
  (match detach with
  | Some p ->
    let g = p.plan_prog.d_image in
    if g.L.heap_base <> t.image.L.heap_base || g.L.ext_names <> t.image.L.ext_names then
      invalid_arg "Exec.run: detach target must share the engine's extern table and heap base"
  | None -> ());
  let max_steps = int_budget max_steps and max_cost = int_budget max_cost in
  let oq = match output_quota with Some q -> max 0 q | None -> max_int in
  t.priv.out_cap <- oq;
  let plan = ref detach in
  let detached = ref false in
  let drained = ref 0 in
  let check_slot () =
    (match poll with Some p -> p () | None -> ());
    match !plan with
    | Some _ when t.detach_req && t.status = Running -> raise Detach_signal
    | _ -> ()
  in
  (* One-shot handoff attempt.  Every failure path leaves the engine on
     its own code with [plan] already cleared, so the run continues
     attached with identical semantics. *)
  let attempt_handoff (p : detach_plan) =
    (* the decoded loop's budget/check installs are not unwound when the
       signal propagates out of it — restore them here *)
    let q = t.priv in
    q.d_check <- no_check;
    q.d_max_steps <- max_int;
    q.d_max_cost <- max_int;
    t.detach_req <- false;
    let m = p.plan_map in
    let rank = Refine_backend.Fimap.rank m and next = Refine_backend.Fimap.next m in
    (* drain with [step] to the next original-instruction boundary (the
       splice the injection fired in has no golden coordinates); the cap
       bounds a parse-defeating image, and budget or quota edges during
       the drain decline the handoff *)
    let ok = ref true in
    let n = Array.length t.image.L.code in
    let cap = ref 4096 in
    while !ok && t.status = Running && t.pc >= 0 && t.pc < n && rank t.pc < 0 do
      if !cap <= 0 || t.steps >= max_steps || t.cost >= max_cost then ok := false
      else begin
        step t;
        incr drained;
        decr cap;
        if t.steps land 1023 = 0 then check_slot ()
      end
    done;
    if t.status <> Running || rank t.pc < 0 then ok := false;
    (* checked after the drain, which retires the rest of the splice and
       with it the flip itself; an Instr_image overlay sits at an
       instrumented pc, meaningless in golden coordinates *)
    if q.sp_struck || t.overlay_pc >= 0 then ok := false;
    (* validate the live shadow call stack: each live frame's stack slot
       must still hold the recorded return address (a fault that smashed
       one makes the translation meaningless), and every return address
       must translate into golden coordinates *)
    let rsp = Int64.to_int t.regs.{R.rsp} in
    if rsp < Mem.mem_size - Mem.stack_limit || rsp > Mem.mem_size - 8 then ok := false;
    for j = 0 to q.cs_len - 1 do
      let slot = q.cs_slots.(j) in
      if !ok && slot >= rsp then begin
        let vi = Int64.to_int q.cs_vals.(j) in
        if
          slot > Mem.mem_size - 8
          || get_le t.mem slot <> q.cs_vals.(j)
          || next vi < 0
        then ok := false
      end
    done;
    if !ok then begin
      (* rewrite live return addresses, then the pc, into golden
         coordinates, and switch onto the target's code *)
      for j = 0 to q.cs_len - 1 do
        let slot = q.cs_slots.(j) in
        if slot >= rsp then store64 t slot (Int64.of_int (next (Int64.to_int q.cs_vals.(j))))
      done;
      t.pc <- rank t.pc;
      t.image <- p.plan_prog.d_image;
      install_decoded t (Some p.plan_prog);
      detached := true
    end
  in
  let rec drive () =
    match
      match t.dprog with
      | Some _ -> decoded_loop t ~max_steps ~max_cost ~check:check_slot
      | None -> step_loop t ~max_steps ~max_cost ~check:check_slot
    with
    | () -> ()
    | exception Detach_signal ->
      (match !plan with
      | Some p ->
        plan := None;
        attempt_handoff p
      | None -> ());
      drive ()
  in
  drive ();
  t.priv.out_cap <- max_int;
  let status = if t.status = Running then Timed_out else t.status in
  t.status <- status;
  (* the write that crossed the cap trapped, so only a tripped run holds
     more output than the cap *)
  let output = Buffer.contents t.env.out in
  let truncated = String.length output > oq in
  let output = if truncated then String.sub output 0 oq else output in
  (* A timed-out run stops with a cost overshooting the budget by at most
     the last slot's weight — per instruction attached, per modeled
     instrumentation bundle on a detach target.  Reporting the burned
     budget itself erases that granularity difference, keeping a detached
     sample's cost bit-identical to the attached run's. *)
  let cost = if status = Timed_out && t.cost > max_cost then max_cost else t.cost in
  {
    status;
    output;
    steps = Int64.of_int t.steps;
    cost = Int64.of_int cost;
    truncated;
    detached = !detached;
    drain_steps = !drained;
  }
