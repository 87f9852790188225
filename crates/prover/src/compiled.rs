//! Slot-compiled obligations: the intermediate form the bytecode lowers.
//!
//! The reference evaluator ([`mod@semcommute_logic::eval`]) looks free
//! variables up by name in a `BTreeMap`-backed `Model` and clones the whole
//! model to bind a quantifier variable. The finite-model prover evaluates
//! one obligation under *millions* of candidate models, so it first
//! resolves every variable occurrence to a dense *slot* index, once: a
//! [`CompiledObligation`] is the obligation's terms over slots (`CTerm`)
//! plus the order in which defines and hypothesis checks run (`Step`).
//! [`crate::bytecode::Program::lower`] turns it into the flat register
//! program that actually evaluates candidates; the property tests check
//! that program against `logic::eval`.

use std::collections::HashMap;

use semcommute_logic::Term;

use crate::obligation::Obligation;

/// A term with every variable occurrence resolved to a slot index, lowered
/// by the bytecode (`crate::bytecode`) to its flat register program.
#[derive(Debug, Clone)]
pub(crate) enum CTerm {
    Slot(u32),
    BoolLit(bool),
    IntLit(i64),
    Null,
    EmptySet,
    EmptyMap,
    EmptySeq,
    Not(Box<CTerm>),
    Neg(Box<CTerm>),
    Card(Box<CTerm>),
    MapSize(Box<CTerm>),
    SeqLen(Box<CTerm>),
    And(Vec<CTerm>),
    Or(Vec<CTerm>),
    Implies(Box<CTerm>, Box<CTerm>),
    Iff(Box<CTerm>, Box<CTerm>),
    Eq(Box<CTerm>, Box<CTerm>),
    Add(Box<CTerm>, Box<CTerm>),
    Sub(Box<CTerm>, Box<CTerm>),
    Lt(Box<CTerm>, Box<CTerm>),
    Le(Box<CTerm>, Box<CTerm>),
    SetAdd(Box<CTerm>, Box<CTerm>),
    SetRemove(Box<CTerm>, Box<CTerm>),
    Member(Box<CTerm>, Box<CTerm>),
    MapPut(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    MapRemove(Box<CTerm>, Box<CTerm>),
    MapGet(Box<CTerm>, Box<CTerm>),
    MapHasKey(Box<CTerm>, Box<CTerm>),
    SeqInsertAt(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    SeqRemoveAt(Box<CTerm>, Box<CTerm>),
    SeqSetAt(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    SeqAt(Box<CTerm>, Box<CTerm>),
    SeqIndexOf(Box<CTerm>, Box<CTerm>),
    SeqLastIndexOf(Box<CTerm>, Box<CTerm>),
    SeqContains(Box<CTerm>, Box<CTerm>),
    Ite(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    Quantifier {
        universal: bool,
        slot: u32,
        lo: Box<CTerm>,
        hi: Box<CTerm>,
        body: Box<CTerm>,
    },
}

/// One step of the compiled evaluation program: compute a defined variable
/// into its slot, or check a hypothesis (bailing out of the candidate when
/// it fails).
///
/// Hypotheses are scheduled at the *earliest* point their referenced defines
/// are available — a hypothesis over input variables only (an index-bounds
/// precondition, say) runs before any define is computed, so the large
/// fraction of candidates that violate it never pays for the defines. The
/// finite search checks millions of candidates per obligation; skipping the
/// define computations for hypothesis-violating candidates is a measurable
/// share of the whole catalog's wall-clock.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Define(u32, CTerm),
    Check(CTerm),
}

/// An obligation compiled against a fixed input-variable order.
#[derive(Debug, Clone)]
pub struct CompiledObligation {
    /// Slots `0..input_count` hold the input variables, in the order given to
    /// [`CompiledObligation::compile`] (the enumeration order of the space).
    pub(crate) input_count: usize,
    /// Defines and hypothesis checks, interleaved: definition order is
    /// preserved, hypothesis order is preserved, and each hypothesis sits
    /// immediately after the last define it depends on.
    pub(crate) steps: Vec<Step>,
    pub(crate) goal: CTerm,
    /// Slot index → variable name, for reconstructing counter-models.
    /// Quantifier-bound slots have synthetic names and are excluded from
    /// reconstruction.
    pub(crate) slot_names: Vec<String>,
    /// Number of named slots (inputs + defines); the rest are binder slots.
    pub(crate) named_slots: usize,
}

impl CompiledObligation {
    /// Compiles `ob` against the given input-variable order (name, sort per
    /// slot). Every free variable of the obligation must appear in
    /// `input_order` or be defined; quantifier binders get private slots.
    pub fn compile(ob: &Obligation, input_order: &[String]) -> CompiledObligation {
        let mut slots: HashMap<String, u32> = HashMap::new();
        let mut slot_names: Vec<String> = Vec::new();
        for name in input_order {
            slots.insert(name.clone(), slot_names.len() as u32);
            slot_names.push(name.clone());
        }
        let input_count = slot_names.len();
        for (name, _) in &ob.defines {
            slots.entry(name.clone()).or_insert_with(|| {
                slot_names.push(name.clone());
                (slot_names.len() - 1) as u32
            });
        }
        let named_slots = slot_names.len();
        let mut compiler = Compiler {
            slots,
            slot_names,
            binders: Vec::new(),
        };
        let defines: Vec<(u32, CTerm)> = ob
            .defines
            .iter()
            .map(|(name, term)| {
                let slot = compiler.slots[name.as_str()];
                (slot, compiler.compile_term(term))
            })
            .collect();
        // For each hypothesis, the position of the last define it reads
        // (`None` when it only reads inputs): the earliest point in the
        // define sequence at which the hypothesis can be checked.
        let define_position: HashMap<&str, usize> = ob
            .defines
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i))
            .collect();
        let hypotheses: Vec<(Option<usize>, CTerm)> = ob
            .hypotheses
            .iter()
            .map(|h| {
                let latest = semcommute_logic::free_vars(h)
                    .keys()
                    .filter_map(|name| define_position.get(name.as_str()).copied())
                    .max();
                (latest, compiler.compile_term(h))
            })
            .collect();
        let goal = compiler.compile_term(&ob.goal);

        // Interleave: hypotheses over inputs only, then define 0, then the
        // hypotheses unlocked by it, then define 1, ... Relative order within
        // the defines and within the hypotheses is preserved.
        let mut steps = Vec::with_capacity(defines.len() + hypotheses.len());
        let mut pending = hypotheses.into_iter().peekable();
        let mut emit_ready = |after: Option<usize>, steps: &mut Vec<Step>| {
            // Hypothesis dependencies are monotone in hypothesis order
            // (vcgen only references already-defined variables), so a
            // peek-and-pop sweep preserves their relative order.
            while matches!(pending.peek(), Some((latest, _)) if *latest <= after) {
                let (_, h) = pending.next().expect("peeked");
                steps.push(Step::Check(h));
            }
        };
        emit_ready(None, &mut steps);
        for (position, (slot, term)) in defines.into_iter().enumerate() {
            steps.push(Step::Define(slot, term));
            emit_ready(Some(position), &mut steps);
        }
        // Defensive: hypotheses whose dependencies were never satisfied
        // (out-of-order references rejected by `Obligation::validate`) still
        // run, last, and surface their evaluation errors.
        for (_, h) in pending {
            steps.push(Step::Check(h));
        }

        CompiledObligation {
            input_count,
            steps,
            goal,
            slot_names: compiler.slot_names,
            named_slots,
        }
    }
}

struct Compiler {
    slots: HashMap<String, u32>,
    slot_names: Vec<String>,
    /// Stack of active quantifier binders (name → slot), innermost last.
    binders: Vec<(String, u32)>,
}

impl Compiler {
    fn fresh_binder_slot(&mut self, name: &str) -> u32 {
        let slot = self.slot_names.len() as u32;
        self.slot_names.push(format!("__q{slot}:{name}"));
        slot
    }

    fn resolve(&self, name: &str) -> Option<u32> {
        if let Some(&(_, slot)) = self.binders.iter().rev().find(|(n, _)| n == name) {
            return Some(slot);
        }
        self.slots.get(name).copied()
    }

    fn compile_term(&mut self, term: &Term) -> CTerm {
        use Term as T;
        let b = |c: &mut Compiler, t: &Term| Box::new(c.compile_term(t));
        match term {
            T::Var(v) => match self.resolve(&v.name) {
                Some(slot) => CTerm::Slot(slot),
                // Defensive: an unbound name becomes a slot that is never
                // filled, which evaluates to an unbound-variable error.
                None => {
                    let slot = self.slot_names.len() as u32;
                    self.slot_names.push(v.name.clone());
                    self.slots.insert(v.name.clone(), slot);
                    CTerm::Slot(slot)
                }
            },
            T::BoolLit(x) => CTerm::BoolLit(*x),
            T::IntLit(i) => CTerm::IntLit(*i),
            T::Null => CTerm::Null,
            T::EmptySet => CTerm::EmptySet,
            T::EmptyMap => CTerm::EmptyMap,
            T::EmptySeq => CTerm::EmptySeq,
            T::Not(a) => CTerm::Not(b(self, a)),
            T::Neg(a) => CTerm::Neg(b(self, a)),
            T::Card(a) => CTerm::Card(b(self, a)),
            T::MapSize(a) => CTerm::MapSize(b(self, a)),
            T::SeqLen(a) => CTerm::SeqLen(b(self, a)),
            T::And(cs) => CTerm::And(cs.iter().map(|c| self.compile_term(c)).collect()),
            T::Or(cs) => CTerm::Or(cs.iter().map(|c| self.compile_term(c)).collect()),
            T::Implies(x, y) => CTerm::Implies(b(self, x), b(self, y)),
            T::Iff(x, y) => CTerm::Iff(b(self, x), b(self, y)),
            T::Eq(x, y) => CTerm::Eq(b(self, x), b(self, y)),
            T::Add(x, y) => CTerm::Add(b(self, x), b(self, y)),
            T::Sub(x, y) => CTerm::Sub(b(self, x), b(self, y)),
            T::Lt(x, y) => CTerm::Lt(b(self, x), b(self, y)),
            T::Le(x, y) => CTerm::Le(b(self, x), b(self, y)),
            T::SetAdd(x, y) => CTerm::SetAdd(b(self, x), b(self, y)),
            T::SetRemove(x, y) => CTerm::SetRemove(b(self, x), b(self, y)),
            T::Member(x, y) => CTerm::Member(b(self, x), b(self, y)),
            T::MapPut(x, y, z) => CTerm::MapPut(b(self, x), b(self, y), b(self, z)),
            T::MapRemove(x, y) => CTerm::MapRemove(b(self, x), b(self, y)),
            T::MapGet(x, y) => CTerm::MapGet(b(self, x), b(self, y)),
            T::MapHasKey(x, y) => CTerm::MapHasKey(b(self, x), b(self, y)),
            T::SeqInsertAt(x, y, z) => CTerm::SeqInsertAt(b(self, x), b(self, y), b(self, z)),
            T::SeqRemoveAt(x, y) => CTerm::SeqRemoveAt(b(self, x), b(self, y)),
            T::SeqSetAt(x, y, z) => CTerm::SeqSetAt(b(self, x), b(self, y), b(self, z)),
            T::SeqAt(x, y) => CTerm::SeqAt(b(self, x), b(self, y)),
            T::SeqIndexOf(x, y) => CTerm::SeqIndexOf(b(self, x), b(self, y)),
            T::SeqLastIndexOf(x, y) => CTerm::SeqLastIndexOf(b(self, x), b(self, y)),
            T::SeqContains(x, y) => CTerm::SeqContains(b(self, x), b(self, y)),
            T::Ite(x, y, z) => CTerm::Ite(b(self, x), b(self, y), b(self, z)),
            T::ForallInt { var, lo, hi, body } | T::ExistsInt { var, lo, hi, body } => {
                let lo = b(self, lo);
                let hi = b(self, hi);
                let slot = self.fresh_binder_slot(var);
                self.binders.push((var.clone(), slot));
                let body = b(self, body);
                self.binders.pop();
                CTerm::Quantifier {
                    universal: matches!(term, T::ForallInt { .. }),
                    slot,
                    lo,
                    hi,
                    body,
                }
            }
        }
    }
}

/// The reference semantics of a compiled obligation, for the unit tests:
/// `logic::eval` run over the obligation's own terms in the compiled step
/// order, with the executors' error wrapping.
#[cfg(test)]
pub(crate) mod reference {
    use semcommute_logic::{eval, Model, Value};

    use super::{CompiledObligation, Step};
    use crate::obligation::Obligation;

    fn boolean(v: Value, context: &str) -> Result<bool, String> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(format!("{context}: expected bool, found {}", other.sort())),
        }
    }

    /// Evaluates one candidate (`model` binds the inputs): `Ok(None)` when
    /// it is not a counterexample, `Ok(Some(model))` with the inputs and
    /// defines when it is, `Err` with the wrapped message on an evaluation
    /// error.
    pub(crate) fn check(
        ob: &Obligation,
        compiled: &CompiledObligation,
        mut model: Model,
    ) -> Result<Option<Model>, String> {
        let mut hypotheses = ob.hypotheses.iter();
        for step in &compiled.steps {
            match step {
                Step::Define(slot, _) => {
                    let name = &compiled.slot_names[*slot as usize];
                    let (_, term) = ob
                        .defines
                        .iter()
                        .find(|(defined, _)| defined == name)
                        .expect("every define step names a define");
                    let value =
                        eval(term, &model).map_err(|e| format!("evaluating `{name}`: {e}"))?;
                    model.insert(name.clone(), value);
                }
                Step::Check(_) => {
                    let h = hypotheses.next().expect("one check step per hypothesis");
                    let value =
                        eval(h, &model).map_err(|e| format!("evaluating hypothesis: {e}"))?;
                    if !boolean(value, "evaluating hypothesis")? {
                        return Ok(None);
                    }
                }
            }
        }
        let value = eval(&ob.goal, &model).map_err(|e| format!("evaluating goal: {e}"))?;
        Ok((!boolean(value, "evaluating goal")?).then_some(model))
    }
}
