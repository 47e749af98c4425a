(** Registry of all serial SP-maintenance algorithms.

    One constructor per algorithm, plus [all] for uniform iteration in
    the Figure-3 table, cross-validation tests and the CLI. *)

val sp_order : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance

val sp_order_implicit : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** SP-order with the English order kept implicitly (paper,
    footnote 2): one OM structure instead of two; thread queries
    only. *)

val sp_bags : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance

val sp_bags_no_compression : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** Union-by-rank-only ablation (Section 5 / Section 7 conjecture). *)

val english_hebrew : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance

val offset_span : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance

val sp_depa : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** DePa-style bit-packed (depth, fork-path) labels ({!Sp_depa}):
    O(1) fork/join with no shared mutable state, lock-free queries. *)

val sp_order_fused : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** SP-order on the fused packed English/Hebrew structure
    ({!Spr_om.Om_fused} via {!Sp_order_fused}): both orders in one
    struct-of-arrays, one handle per node, allocation-free
    fork/join/query. *)

val lca_reference : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance

val hb_vector : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** Vector-clock happens-before detector ({!Spr_hb.Sp_clock.Vector}):
    Θ(width) fork copy and join, O(1) epoch queries — the textbook
    competitor SP-order's O(1)-per-operation labels are measured
    against. *)

val hb_tree : Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** Tree-clock happens-before detector ({!Spr_hb.Sp_clock.Tree}):
    joins cost O(updated subtree) instead of Θ(width)
    ({!Spr_hb.Tree_clock}). *)

val all : (string * (Spr_sptree.Sp_tree.t -> Sp_maintainer.instance)) list
(** The four algorithms of Figure 3, in the paper's order, plus the
    modern DePa labeling, the reference oracle and the ablation
    variants. *)

val figure3 : (string * (Spr_sptree.Sp_tree.t -> Sp_maintainer.instance)) list
(** Exactly the four rows of Figure 3. *)

val figure3_modern : (string * (Spr_sptree.Sp_tree.t -> Sp_maintainer.instance)) list
(** The Figure-3 rows plus the post-paper labels-not-clocks competitor
    ([sp-depa]) — what EXP-FIG3 actually tabulates. *)

val names : string list
(** Registered algorithm names, in [all]'s order. *)

val find_opt : string -> (Spr_sptree.Sp_tree.t -> Sp_maintainer.instance) option

val unknown : string -> string
(** [unknown name] is the canonical "unknown algorithm ... (valid:
    ...)" message — the one string every CLI prints for a bad [--algo]
    so the error paths cannot drift. *)

val find : string -> Spr_sptree.Sp_tree.t -> Sp_maintainer.instance
(** Look an algorithm up by name.
    @raise Invalid_argument with {!unknown}'s message on an
    unregistered name (never a bare [Not_found]). *)
