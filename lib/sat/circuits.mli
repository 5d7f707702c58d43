(** Word-level circuit construction over an abstract boolean algebra.

    The same structural lowering of expressions — ripple adders,
    shift-add multipliers, restoring dividers, barrel shifters,
    comparator chains, mux-tree memory reads and per-word writes — is
    used by two backends: the Tseitin bit-blaster ({!Bitblast},
    algebra = solver literals) and the BDD image computation of
    symbolic reachability ([Ilv_core.Reach], algebra = BDD nodes).
    Implementing it once keeps the backends bit-for-bit aligned. *)

open Ilv_expr

module type ALGEBRA = sig
  type man
  type b

  val tt : man -> b
  val ff : man -> b
  val neg : man -> b -> b
  val mk_and : man -> b -> b -> b
  val mk_or : man -> b -> b -> b
  val mk_xor : man -> b -> b -> b
  val mk_iff : man -> b -> b -> b
  val mk_ite : man -> b -> b -> b -> b
end

val max_concrete_addr_width : int
(** Largest memory [addr_width] the concrete (one word per address)
    encodings accept; wider memories must be abstracted away first. *)

module Make (A : ALGEBRA) : sig
  type mem_bits = { addr_width : int; words : A.b array array }

  type bits =
    | B_bool of A.b
    | B_vec of A.b array  (** least significant first *)
    | B_mem of mem_bits

  val expect_bool : bits -> A.b
  val expect_vec : bits -> A.b array
  val expect_mem : bits -> mem_bits

  (** {1 Vector circuits} *)

  val vec_const : A.man -> Bitvec.t -> A.b array
  val add_vec : ?cin:A.b -> A.man -> A.b array -> A.b array -> A.b array
  val not_vec : A.man -> A.b array -> A.b array
  val neg_vec : A.man -> A.b array -> A.b array
  val sub_vec : A.man -> A.b array -> A.b array -> A.b array
  val mul_vec : A.man -> A.b array -> A.b array -> A.b array
  val divmod_vec : A.man -> A.b array -> A.b array -> A.b array * A.b array
  val ult_vec : A.man -> A.b array -> A.b array -> A.b
  val ule_vec : A.man -> A.b array -> A.b array -> A.b
  val slt_vec : A.man -> A.b array -> A.b array -> A.b
  val sle_vec : A.man -> A.b array -> A.b array -> A.b
  val eq_vec : A.man -> A.b array -> A.b array -> A.b
  val ite_vec : A.man -> A.b -> A.b array -> A.b array -> A.b array
  val shift_sym : A.man -> left:bool -> fill:A.b -> A.b array -> A.b array -> A.b array

  (** {1 Memory circuits} *)

  val read_mem : A.man -> A.b array array -> A.b array -> A.b array
  val write_mem :
    A.man -> A.b array array -> A.b array -> A.b array -> A.b array array
  val eq_mem : A.man -> A.b array array -> A.b array array -> A.b

  (** {1 Expression compilation} *)

  type compiler

  val compiler : A.man -> fresh_var:(string -> Sort.t -> bits) -> compiler
  (** [fresh_var] supplies the bits of a free variable; it is called at
      most once per name (results are cached). *)

  val bits : compiler -> Expr.t -> bits
  (** Structural compilation, memoized over the expression DAG. *)

  val bool_bit : compiler -> Expr.t -> A.b
end
