//! Pre-interning tree-walking baselines for the `bench_interning` ablation.
//!
//! These are faithful copies of the formula-tree implementations that
//! `ivy-rml` shipped before the hash-consed IR landed: `wp` over
//! `subst::reference` and the guarded-path transition compiler over tree
//! renames. They exist so the benchmark compares the interned pipeline
//! against the real historical baseline rather than against itself through
//! the delegating tree APIs (which now route through the interner).

use std::collections::{BTreeMap, BTreeSet};

use ivy_fol::subst::reference::{rewrite_function, rewrite_relation, subst_constant};
use ivy_fol::subst::{all_var_names, fresh_name};
use ivy_fol::{Binding, Formula, Signature, Sort, Sym, Term};
use ivy_rml::{paths, update_params, Cmd, Path, Program, SymMap};

/// Computes `wp(cmd, post)` exactly as the pre-interning implementation did:
/// every substitution walks and rebuilds the formula tree.
///
/// # Panics
///
/// Panics if a havocked variable is not a declared program variable.
pub fn wp_tree(sig: &Signature, axiom: &Formula, cmd: &Cmd, post: &Formula) -> Formula {
    match cmd {
        Cmd::Skip => post.clone(),
        Cmd::Abort => Formula::False,
        Cmd::UpdateRel { rel, params, body } => {
            let target = Formula::implies(axiom.clone(), post.clone());
            rewrite_relation(&target, rel, params, body)
        }
        Cmd::UpdateFun { fun, params, body } => {
            let target = Formula::implies(axiom.clone(), post.clone());
            rewrite_function(&target, fun, params, body)
        }
        Cmd::Havoc(v) => {
            let decl = sig
                .function(v)
                .unwrap_or_else(|| panic!("havoc of undeclared variable `{v}`"));
            assert!(decl.is_constant(), "havoc target `{v}` is not a variable");
            let target = Formula::implies(axiom.clone(), post.clone());
            let mut used: BTreeSet<Sym> = target.free_vars();
            all_var_names(&target, &mut used);
            let x = fresh_name(&heading_var(v), &mut used);
            let substituted = subst_constant(&target, v, &Term::Var(x));
            Formula::forall([Binding::new(x, decl.ret)], substituted)
        }
        Cmd::Assume(phi) => Formula::implies(phi.clone(), post.clone()),
        Cmd::Seq(cmds) => {
            let mut q = post.clone();
            for c in cmds.iter().rev() {
                q = wp_tree(sig, axiom, c, &q);
            }
            q
        }
        Cmd::Choice(cmds) => Formula::and(cmds.iter().map(|c| wp_tree(sig, axiom, c, post))),
    }
}

fn heading_var(v: &Sym) -> String {
    let mut s: String = v.as_str().to_string();
    if let Some(first) = s.get_mut(0..1) {
        first.make_ascii_uppercase();
    }
    format!("{s}_h")
}

/// Tree-walking symbol rename (the pre-interning `rename_symbols`).
pub fn rename_symbols_tree(f: &Formula, map: &SymMap) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Rel(r, args) => Formula::Rel(
            *map.get(r).unwrap_or(r),
            args.iter().map(|t| rename_term_tree(t, map)).collect(),
        ),
        Formula::Eq(a, b) => Formula::Eq(rename_term_tree(a, map), rename_term_tree(b, map)),
        Formula::Not(g) => Formula::Not(Box::new(rename_symbols_tree(g, map))),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| rename_symbols_tree(g, map)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| rename_symbols_tree(g, map)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(rename_symbols_tree(a, map)),
            Box::new(rename_symbols_tree(b, map)),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(rename_symbols_tree(a, map)),
            Box::new(rename_symbols_tree(b, map)),
        ),
        Formula::Forall(bs, g) => {
            Formula::Forall(bs.clone(), Box::new(rename_symbols_tree(g, map)))
        }
        Formula::Exists(bs, g) => {
            Formula::Exists(bs.clone(), Box::new(rename_symbols_tree(g, map)))
        }
    }
}

fn rename_term_tree(t: &Term, map: &SymMap) -> Term {
    match t {
        Term::Var(_) => t.clone(),
        Term::App(f, args) => Term::App(
            *map.get(f).unwrap_or(f),
            args.iter().map(|a| rename_term_tree(a, map)).collect(),
        ),
        Term::Ite(c, a, b) => Term::Ite(
            Box::new(rename_symbols_tree(c, map)),
            Box::new(rename_term_tree(a, map)),
            Box::new(rename_term_tree(b, map)),
        ),
    }
}

/// A `k`-step unrolling compiled entirely over formula trees — the
/// pre-interning [`ivy_rml::Unrolling`], field for field.
#[derive(Clone, Debug)]
pub struct TreeUnrolling {
    /// Versioned signature.
    pub sig: Signature,
    /// Axioms plus init transition.
    pub base: Formula,
    /// Vocabulary of each loop-head state.
    pub maps: Vec<SymMap>,
    /// Transition formula per step.
    pub steps: Vec<Formula>,
    /// Labeled path formulas per step.
    pub step_paths: Vec<Vec<(String, Formula)>>,
    /// Aborting-init error formula.
    pub init_error: Formula,
    /// Labeled aborting-body error formulas per step.
    pub step_errors: Vec<Vec<(String, Formula)>>,
    /// Aborting-final error formula per loop-head state.
    pub final_errors: Vec<Formula>,
}

/// Tree-walking transition compilation (the pre-interning `unroll`).
///
/// # Panics
///
/// Panics on invalid programs (undeclared symbols).
pub fn unroll_tree(program: &Program, k: usize) -> TreeUnrolling {
    unroll_tree_inner(program, k, true)
}

/// Tree-walking [`ivy_rml::unroll_free`].
pub fn unroll_free_tree(program: &Program, k: usize) -> TreeUnrolling {
    unroll_tree_inner(program, k, false)
}

fn unroll_tree_inner(program: &Program, k: usize, with_init: bool) -> TreeUnrolling {
    let mut ctx = Ctx {
        sig: program.sig.clone(),
        axiom: program.axiom(),
        counter: 0,
    };
    let identity: SymMap = program
        .sig
        .relations()
        .map(|(s, _)| (*s, *s))
        .chain(program.sig.functions().map(|(s, _)| (*s, *s)))
        .collect();

    let mut parts = vec![ctx.axiom.clone()];
    let (init_error, map0) = if with_init {
        let init_paths = paths(&program.init);
        let normal_init: Vec<&Path> = init_paths.iter().filter(|p| !p.aborts).collect();
        let abort_init: Vec<&Path> = init_paths.iter().filter(|p| p.aborts).collect();
        let (init_formula, map0) = ctx.compile_phase(&normal_init, &identity, "i");
        parts.push(init_formula);
        let init_error = Formula::or(
            abort_init
                .iter()
                .map(|p| ctx.compile_error_path(p, &identity)),
        );
        (init_error, map0)
    } else {
        (Formula::False, identity.clone())
    };

    let body_paths: Vec<(String, Path)> = program
        .actions
        .iter()
        .flat_map(|a| paths(&a.cmd).into_iter().map(move |p| (a.name.clone(), p)))
        .collect();
    let mut maps = vec![map0];
    let mut steps = Vec::with_capacity(k);
    let mut step_paths = Vec::with_capacity(k);
    let mut step_errors = Vec::with_capacity(k);
    let mut final_errors = Vec::with_capacity(k + 1);
    for j in 0..k {
        let in_map = maps[j].clone();
        let normal: Vec<&Path> = body_paths
            .iter()
            .filter(|(_, p)| !p.aborts)
            .map(|(_, p)| p)
            .collect();
        let (labeled, out_map) =
            ctx.compile_phase_labeled(&body_paths, &normal, &in_map, &format!("{}", j + 1));
        steps.push(Formula::or(labeled.iter().map(|(_, f)| f.clone())));
        step_paths.push(labeled);
        let errors: Vec<(String, Formula)> = body_paths
            .iter()
            .filter(|(_, p)| p.aborts)
            .map(|(name, p)| (name.clone(), ctx.compile_error_path(p, &in_map)))
            .collect();
        step_errors.push(errors);
        maps.push(out_map);
    }
    let final_paths = paths(&program.final_cmd);
    for map in &maps {
        let err = Formula::or(
            final_paths
                .iter()
                .filter(|p| p.aborts)
                .map(|p| ctx.compile_error_path(p, map)),
        );
        final_errors.push(err);
    }
    TreeUnrolling {
        sig: ctx.sig,
        base: Formula::and(parts),
        maps,
        steps,
        step_paths,
        init_error,
        step_errors,
        final_errors,
    }
}

struct Ctx {
    sig: Signature,
    axiom: Formula,
    counter: usize,
}

impl Ctx {
    fn fresh_version(&mut self, base: &Sym, tag: &str) -> Sym {
        loop {
            let name = Sym::new(format!("{base}__{tag}_{}", self.counter));
            self.counter += 1;
            if self.sig.relation(&name).is_some() || self.sig.function(&name).is_some() {
                continue;
            }
            if let Some(args) = self.sig.relation(base).map(<[Sort]>::to_vec) {
                self.sig.add_relation(name, args).expect("fresh name");
            } else {
                let decl = self
                    .sig
                    .function(base)
                    .unwrap_or_else(|| panic!("unknown symbol `{base}`"))
                    .clone();
                self.sig
                    .add_function(name, decl.args, decl.ret)
                    .expect("fresh name");
            }
            return name;
        }
    }

    fn compile_phase(&mut self, paths: &[&Path], in_map: &SymMap, tag: &str) -> (Formula, SymMap) {
        let labeled: Vec<(String, Path)> = paths
            .iter()
            .map(|p| (String::new(), (*p).clone()))
            .collect();
        let refs: Vec<&Path> = paths.to_vec();
        let (out, map) = self.compile_phase_labeled(&labeled, &refs, in_map, tag);
        (Formula::or(out.into_iter().map(|(_, f)| f)), map)
    }

    fn compile_phase_labeled(
        &mut self,
        labeled: &[(String, Path)],
        normal: &[&Path],
        in_map: &SymMap,
        tag: &str,
    ) -> (Vec<(String, Formula)>, SymMap) {
        let mut updated: BTreeSet<Sym> = BTreeSet::new();
        for p in normal {
            for a in &p.atoms {
                updated.extend(a.modified_symbols());
            }
        }
        let mut out_map = in_map.clone();
        for sym in &updated {
            let v = self.fresh_version(sym, tag);
            out_map.insert(*sym, v);
        }
        let mut out = Vec::new();
        for (name, p) in labeled {
            if p.aborts {
                continue;
            }
            let f = self.compile_path(p, in_map, &out_map, &updated, tag);
            out.push((name.clone(), f));
        }
        if out.is_empty() {
            out.push((String::new(), Formula::False));
        }
        (out, out_map)
    }

    fn compile_path(
        &mut self,
        path: &Path,
        in_map: &SymMap,
        out_map: &SymMap,
        updated: &BTreeSet<Sym>,
        tag: &str,
    ) -> Formula {
        let last_write: BTreeMap<Sym, usize> = path
            .atoms
            .iter()
            .enumerate()
            .flat_map(|(i, a)| a.modified_symbols().into_iter().map(move |s| (s, i)))
            .collect();
        let mut cur = in_map.clone();
        let mut parts = Vec::new();
        for (i, atom) in path.atoms.iter().enumerate() {
            match atom {
                Cmd::Assume(phi) => parts.push(rename_symbols_tree(phi, &cur)),
                Cmd::UpdateRel { rel, params, body } => {
                    let body = rename_symbols_tree(body, &cur);
                    let target = self.version_for(rel, i, &last_write, out_map, tag);
                    let arg_sorts = self.sig.relation(rel).expect("validated program").to_vec();
                    let bindings: Vec<Binding> = params
                        .iter()
                        .zip(&arg_sorts)
                        .map(|(p, s)| Binding::new(*p, *s))
                        .collect();
                    let lhs = Formula::rel(target, params.iter().map(|p| Term::Var(*p)));
                    parts.push(Formula::forall(bindings, Formula::iff(lhs, body)));
                    cur.insert(*rel, target);
                    self.push_axiom_if_touched(rel, &cur, &mut parts);
                }
                Cmd::UpdateFun { fun, params, body } => {
                    let body = rename_term_tree(body, &cur);
                    let target = self.version_for(fun, i, &last_write, out_map, tag);
                    let decl = self.sig.function(fun).expect("validated program").clone();
                    let bindings: Vec<Binding> = params
                        .iter()
                        .zip(&decl.args)
                        .map(|(p, s)| Binding::new(*p, *s))
                        .collect();
                    let lhs = Term::app(target, params.iter().map(|p| Term::Var(*p)));
                    parts.push(Formula::forall(bindings, Formula::eq(lhs, body)));
                    cur.insert(*fun, target);
                    self.push_axiom_if_touched(fun, &cur, &mut parts);
                }
                Cmd::Havoc(v) => {
                    let target = self.version_for(v, i, &last_write, out_map, tag);
                    cur.insert(*v, target);
                    self.push_axiom_if_touched(v, &cur, &mut parts);
                }
                other => unreachable!("non-atomic command {other} in path"),
            }
        }
        for sym in updated {
            if cur[sym] == out_map[sym] {
                continue;
            }
            parts.push(self.frame_equality(sym, &cur[sym], &out_map[sym]));
        }
        Formula::and(parts)
    }

    fn version_for(
        &mut self,
        sym: &Sym,
        i: usize,
        last_write: &BTreeMap<Sym, usize>,
        out_map: &SymMap,
        tag: &str,
    ) -> Sym {
        if last_write.get(sym) == Some(&i) {
            out_map[sym]
        } else {
            self.fresh_version(sym, &format!("{tag}t"))
        }
    }

    fn push_axiom_if_touched(&self, sym: &Sym, cur: &SymMap, parts: &mut Vec<Formula>) {
        if self.axiom.mentions_symbol(sym) {
            parts.push(rename_symbols_tree(&self.axiom, cur));
        }
    }

    fn frame_equality(&self, sym: &Sym, from: &Sym, to: &Sym) -> Formula {
        if let Some(arg_sorts) = self.sig.relation(sym).map(<[Sort]>::to_vec) {
            let (params, bindings) = update_params(&arg_sorts);
            let args: Vec<Term> = params.iter().map(|p| Term::Var(*p)).collect();
            Formula::forall(
                bindings,
                Formula::iff(Formula::rel(*to, args.clone()), Formula::rel(*from, args)),
            )
        } else {
            let decl = self.sig.function(sym).expect("known symbol").clone();
            let (params, bindings) = update_params(&decl.args);
            let args: Vec<Term> = params.iter().map(|p| Term::Var(*p)).collect();
            Formula::forall(
                bindings,
                Formula::eq(Term::app(*to, args.clone()), Term::app(*from, args)),
            )
        }
    }

    fn compile_error_path(&mut self, path: &Path, in_map: &SymMap) -> Formula {
        debug_assert!(path.aborts);
        let mut cur = in_map.clone();
        let mut parts = Vec::new();
        for atom in &path.atoms {
            match atom {
                Cmd::Assume(phi) => parts.push(rename_symbols_tree(phi, &cur)),
                Cmd::UpdateRel { rel, params, body } => {
                    let body = rename_symbols_tree(body, &cur);
                    let target = self.fresh_version(rel, "e");
                    let arg_sorts = self.sig.relation(rel).expect("validated program").to_vec();
                    let bindings: Vec<Binding> = params
                        .iter()
                        .zip(&arg_sorts)
                        .map(|(p, s)| Binding::new(*p, *s))
                        .collect();
                    let lhs = Formula::rel(target, params.iter().map(|p| Term::Var(*p)));
                    parts.push(Formula::forall(bindings, Formula::iff(lhs, body)));
                    cur.insert(*rel, target);
                    self.push_axiom_if_touched(rel, &cur, &mut parts);
                }
                Cmd::UpdateFun { fun, params, body } => {
                    let body = rename_term_tree(body, &cur);
                    let target = self.fresh_version(fun, "e");
                    let decl = self.sig.function(fun).expect("validated program").clone();
                    let bindings: Vec<Binding> = params
                        .iter()
                        .zip(&decl.args)
                        .map(|(p, s)| Binding::new(*p, *s))
                        .collect();
                    let lhs = Term::app(target, params.iter().map(|p| Term::Var(*p)));
                    parts.push(Formula::forall(bindings, Formula::eq(lhs, body)));
                    cur.insert(*fun, target);
                    self.push_axiom_if_touched(fun, &cur, &mut parts);
                }
                Cmd::Havoc(v) => {
                    let target = self.fresh_version(v, "e");
                    cur.insert(*v, target);
                    self.push_axiom_if_touched(v, &cur, &mut parts);
                }
                other => unreachable!("non-atomic command {other} in path"),
            }
        }
        Formula::and(parts)
    }
}
