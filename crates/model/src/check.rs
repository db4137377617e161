//! Static checking of full installation specifications.
//!
//! "Engage's type system can check the installation specification to make
//! sure all required dependencies are present in the correct physical
//! context and that each instance is correctly configured" (§2).

use std::collections::{BTreeSet, HashMap};

use crate::deps::Dependency;
use crate::error::ModelError;
use crate::index::UniverseIndex;
use crate::instance::{InstallSpec, InstanceId, ResourceInstance};
use crate::key::ResourceKey;
use crate::ports::PortKind;
use crate::rtype::ResourceType;
use crate::universe::Universe;

/// Checks a full installation specification against a universe.
///
/// Verifies, for every instance:
///
/// 1. its key names a known, *concrete* resource type;
/// 2. it has an inside link iff its type has an inside dependency, and the
///    link's target instantiates one of the dependency's (expanded) targets;
/// 3. every environment dependency is satisfied by a linked instance **on
///    the same machine**;
/// 4. every peer dependency is satisfied by a linked instance (any machine);
/// 5. the instance-level dependency graph is acyclic;
/// 6. config/input/output port values inhabit the declared port types, and
///    each input port value equals the linked instance's mapped output
///    (configuration options are "passed correctly", §1).
///
/// Builds a [`UniverseIndex`] and runs [`check_install_spec_indexed`];
/// callers that already hold an index should call that directly.
///
/// # Errors
///
/// All violations found, as a non-empty list.
pub fn check_install_spec(universe: &Universe, spec: &InstallSpec) -> Result<(), Vec<ModelError>> {
    check_install_spec_indexed(&UniverseIndex::new(universe), spec)
}

/// [`check_install_spec`] over a prebuilt [`UniverseIndex`]: every type,
/// target-expansion and subtype question is an index lookup, so the
/// check costs O(instances × links) rather than re-deriving effective
/// types per instance.
///
/// # Errors
///
/// All violations found, as a non-empty list.
pub fn check_install_spec_indexed(
    index: &UniverseIndex,
    spec: &InstallSpec,
) -> Result<(), Vec<ModelError>> {
    let mut errors = Vec::new();

    // Resolve effective types once, in spec order.
    let types: Vec<Option<&ResourceType>> = spec
        .iter()
        .map(|inst| match index.effective(inst.key()) {
            Ok(ty) if ty.is_abstract() => {
                errors.push(ModelError::AbstractInstantiation {
                    key: inst.key().clone(),
                    instance: inst.id().to_string(),
                });
                None
            }
            Ok(ty) => Some(ty),
            Err(_) => {
                errors.push(ModelError::UnknownKey {
                    key: inst.key().clone(),
                    referenced_by: format!("instance `{}`", inst.id()),
                });
                None
            }
        })
        .collect();

    for (inst, ty) in spec.iter().zip(types) {
        let Some(ty) = ty else {
            continue;
        };
        let targets = index.dependency_targets(inst.key());
        check_links(index, spec, inst, ty, targets, &mut errors);
        check_ports(inst, ty, index.reverse_fed_inputs(), &mut errors);
    }

    check_instance_acyclicity(spec, &mut errors);

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn key_of<'a>(spec: &'a InstallSpec, id: &InstanceId) -> Option<&'a ResourceKey> {
    spec.get(id).map(|i| i.key())
}

/// Whether `key` instantiates one of the expanded `targets`.
fn satisfies(index: &UniverseIndex, key: &ResourceKey, targets: &[ResourceKey]) -> bool {
    targets
        .iter()
        .any(|t| key == t || index.is_declared_subtype(key, t))
}

/// Checks `inst`'s links and port mappings; `expanded[i]` holds the
/// targets of `ty.dependencies()`'s `i`-th dependency (`None` if the
/// expansion failed, which is then redone so the error names `inst`).
fn check_links(
    index: &UniverseIndex,
    spec: &InstallSpec,
    inst: &ResourceInstance,
    ty: &ResourceType,
    expanded: &[Option<Vec<ResourceKey>>],
    errors: &mut Vec<ModelError>,
) {
    let targets_of = |i: usize, dep: &Dependency| match &expanded[i] {
        Some(targets) => Ok(targets.as_slice()),
        None => Err(index
            .expand_targets(dep, &format!("instance `{}`", inst.id()))
            .expect_err("the type's expansion failed")),
    };
    let my_machine = spec.machine_ref(inst.id());

    // Inside.
    match (ty.inside(), inst.inside_link()) {
        (None, None) => {}
        (None, Some(link)) => errors.push(ModelError::SpecError {
            detail: format!(
                "machine instance `{}` has an inside link to `{link}`",
                inst.id()
            ),
        }),
        (Some(_), None) => errors.push(ModelError::SpecError {
            detail: format!("instance `{}` is missing its inside link", inst.id()),
        }),
        (Some(dep), Some(link)) => match (targets_of(0, dep), key_of(spec, link)) {
            (Ok(targets), Some(link_key)) => {
                if !satisfies(index, link_key, targets) {
                    errors.push(ModelError::SpecError {
                        detail: format!(
                            "inside link of `{}` points at `{link}` (`{link_key}`), which \
                             satisfies none of {}",
                            inst.id(),
                            dep
                        ),
                    });
                }
            }
            (Err(e), _) => errors.push(e),
            (_, None) => errors.push(ModelError::SpecError {
                detail: format!(
                    "inside link of `{}` points at unknown instance `{link}`",
                    inst.id()
                ),
            }),
        },
    }

    // Env and peer: each dependency must be satisfiable by a distinct link.
    let env_first = usize::from(ty.inside().is_some());
    let peer_first = env_first + ty.env().len();
    for (kind_name, deps, first, links, same_machine) in [
        ("environment", ty.env(), env_first, inst.env_links(), true),
        ("peer", ty.peer(), peer_first, inst.peer_links(), false),
    ] {
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for (i, dep) in deps.iter().enumerate() {
            let targets = match targets_of(first + i, dep) {
                Ok(t) => t,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            let found = links.iter().enumerate().find(|(i, link)| {
                if used.contains(i) {
                    return false;
                }
                let Some(link_key) = key_of(spec, link) else {
                    return false;
                };
                if !satisfies(index, link_key, targets) {
                    return false;
                }
                if same_machine {
                    // Environment dependencies resolve "within the context of
                    // a single machine" (§1).
                    spec.machine_ref(link) == my_machine && my_machine.is_some()
                } else {
                    true
                }
            });
            match found {
                Some((i, _)) => {
                    used.insert(i);
                }
                None => errors.push(ModelError::SpecError {
                    detail: format!(
                        "{kind_name} dependency `{dep}` of `{}` is unsatisfied{}",
                        inst.id(),
                        if same_machine { " on its machine" } else { "" }
                    ),
                }),
            }
        }
        // Dangling links are errors even if all deps were satisfied.
        for link in links {
            if spec.get(link).is_none() {
                errors.push(ModelError::SpecError {
                    detail: format!(
                        "{kind_name} link of `{}` points at unknown instance `{link}`",
                        inst.id()
                    ),
                });
            }
        }
    }

    // Port mappings: each input port equals the mapped output of the linked
    // instance satisfying that dependency.
    for (dep, targets) in ty.dependencies().zip(expanded) {
        let Some(targets) = targets else {
            continue;
        };
        // The first instance link that could satisfy this dependency.
        let satisfier = inst
            .links()
            .find(|l| key_of(spec, l).is_some_and(|k| satisfies(index, k, targets)));
        let Some(satisfier) = satisfier else {
            continue;
        };
        let Some(upstream) = spec.get(satisfier) else {
            continue;
        };
        for m in dep.forward_mappings() {
            let expect = upstream.outputs().get(m.from_output());
            let got = inst.inputs().get(m.to_input());
            match (expect, got) {
                (Some(e), Some(g)) if e == g => {}
                (Some(e), Some(g)) => errors.push(ModelError::SpecError {
                    detail: format!(
                        "input `{}` of `{}` is `{g}` but mapped output `{}.{}` is `{e}`",
                        m.to_input(),
                        inst.id(),
                        satisfier,
                        m.from_output()
                    ),
                }),
                (Some(_), None) => errors.push(ModelError::SpecError {
                    detail: format!(
                        "input `{}` of `{}` has no value (mapped from `{}.{}`)",
                        m.to_input(),
                        inst.id(),
                        satisfier,
                        m.from_output()
                    ),
                }),
                (None, _) => errors.push(ModelError::SpecError {
                    detail: format!(
                        "instance `{satisfier}` does not provide output `{}` required by `{}`",
                        m.from_output(),
                        inst.id()
                    ),
                }),
            }
        }
    }
}

fn check_ports(
    inst: &ResourceInstance,
    ty: &ResourceType,
    reverse_fed: &BTreeSet<(ResourceKey, String)>,
    errors: &mut Vec<ModelError>,
) {
    for (kind, values) in [
        (PortKind::Config, inst.config()),
        (PortKind::Input, inst.inputs()),
        (PortKind::Output, inst.outputs()),
    ] {
        // Declared ports must have admissible values.
        for p in ty.ports_of(kind) {
            match values.get(p.name()) {
                Some(v) => {
                    if !p.ty().admits(v) {
                        errors.push(ModelError::SpecError {
                            detail: format!(
                                "{kind} port `{}` of `{}` has value `{v}` not of type `{}`",
                                p.name(),
                                inst.id(),
                                p.ty()
                            ),
                        });
                    }
                }
                None => {
                    // A reverse-fed input may be absent when the feeding
                    // dependent is not deployed.
                    let optional = kind == PortKind::Input
                        && reverse_fed.contains(&(inst.key().clone(), p.name().to_owned()));
                    if !optional {
                        errors.push(ModelError::SpecError {
                            detail: format!(
                                "{kind} port `{}` of `{}` has no value",
                                p.name(),
                                inst.id()
                            ),
                        });
                    }
                }
            }
        }
        // No values for undeclared ports.
        for name in values.keys() {
            if ty.port(kind, name).is_none() {
                errors.push(ModelError::SpecError {
                    detail: format!(
                        "instance `{}` sets undeclared {kind} port `{name}`",
                        inst.id()
                    ),
                });
            }
        }
    }
}

/// The instance-level dependency graph must be acyclic so a deployment
/// order exists ("the dependency ordering is acyclic, this is always
/// possible", §5.2).
fn check_instance_acyclicity(spec: &InstallSpec, errors: &mut Vec<ModelError>) {
    if topological_order(spec).is_none() {
        errors.push(ModelError::SpecError {
            detail: "instance dependency graph has a cycle".into(),
        });
    }
}

/// Computes a topological order of instances such that every instance
/// appears *after* all instances it links to (upstream-first). Returns
/// `None` if the graph has a cycle. Dangling links are ignored (reported
/// separately by [`check_install_spec`]).
pub fn topological_order(spec: &InstallSpec) -> Option<Vec<InstanceId>> {
    let ids: Vec<&InstanceId> = spec.iter().map(|i| i.id()).collect();
    let index: HashMap<&InstanceId, usize> =
        ids.iter().enumerate().map(|(n, id)| (*id, n)).collect();
    let n = ids.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for inst in spec.iter() {
        let me = index[inst.id()];
        for link in inst.links() {
            if let Some(&up) = index.get(link) {
                // Edge up -> me: `me` depends on `up`.
                dependents[up].push(me);
                indegree[me] += 1;
            }
        }
    }
    // Kahn's algorithm, preferring original order for determinism.
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::BinaryHeap::new();
    for r in ready {
        queue.push(std::cmp::Reverse(r));
    }
    while let Some(std::cmp::Reverse(i)) = queue.pop() {
        order.push(ids[i].clone());
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(std::cmp::Reverse(d));
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{DepKind, Dependency, PortMapping};
    use crate::expr::{Expr, Namespace};
    use crate::ports::PortDef;
    use crate::value::{Value, ValueType};

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.insert(
            ResourceType::builder("Server")
                .abstract_type()
                .port(PortDef::config(
                    "hostname",
                    ValueType::Str,
                    Expr::lit("localhost"),
                ))
                .port(PortDef::output(
                    "host",
                    ValueType::record([("hostname", ValueType::Str)]),
                    Expr::Struct(vec![(
                        "hostname".into(),
                        Expr::reference(Namespace::Config, ["hostname"]),
                    )]),
                ))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("Mac-OSX 10.6")
                .extends("Server")
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("MySQL 5.1")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .port(PortDef::config("port", ValueType::Int, Expr::lit(3306i64)))
                .port(PortDef::output(
                    "mysql",
                    ValueType::record([("port", ValueType::Int)]),
                    Expr::Struct(vec![(
                        "port".into(),
                        Expr::reference(Namespace::Config, ["port"]),
                    )]),
                ))
                .build(),
        )
        .unwrap();
        u.insert(
            ResourceType::builder("App 1.0")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .port(PortDef::input(
                    "mysql",
                    ValueType::record([("port", ValueType::Int)]),
                ))
                .dependency(Dependency::on(
                    DepKind::Peer,
                    "MySQL 5.1",
                    vec![PortMapping::forward("mysql", "mysql")],
                ))
                .build(),
        )
        .unwrap();
        u
    }

    fn good_spec() -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Mac-OSX 10.6");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();

        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("server");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();

        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(app).unwrap();
        spec
    }

    #[test]
    fn good_spec_checks() {
        let u = universe();
        assert_eq!(check_install_spec(&u, &good_spec()), Ok(()));
    }

    #[test]
    fn missing_inside_link_reported() {
        let u = universe();
        let mut spec = good_spec();
        // Rebuild db with no inside link.
        let mut bad = InstallSpec::new();
        for inst in spec.iter() {
            let mut c = inst.clone();
            if c.id().as_str() == "db" {
                c = ResourceInstance::new("db", "MySQL 5.1");
                c.set_config("port", Value::from(3306i64));
                c.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
            }
            bad.push(c).unwrap();
        }
        spec = bad;
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.to_string().contains("missing its inside link")));
    }

    #[test]
    fn mismatched_input_value_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"app".into())
            .unwrap()
            .set_input("mysql", Value::structure([("port", Value::from(9999i64))]));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("mapped output")));
    }

    #[test]
    fn peer_dependency_missing_reported() {
        let u = universe();
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Mac-OSX 10.6");
        server.set_config("hostname", Value::from("localhost"));
        server.set_output(
            "host",
            Value::structure([("hostname", Value::from("localhost"))]),
        );
        spec.push(server).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(app).unwrap();
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.to_string().contains("peer dependency")),
            "{errs:?}"
        );
    }

    #[test]
    fn failed_target_expansion_names_each_instance() {
        // Two instances of one type whose env dependency has an empty
        // frontier: the per-type expansion memo must not reuse the first
        // instance's error for the second.
        let mut u = universe();
        u.insert(ResourceType::builder("Nothing").abstract_type().build())
            .unwrap();
        u.insert(
            ResourceType::builder("Needy 1.0")
                .inside(Dependency::on(DepKind::Inside, "Server", vec![]))
                .dependency(Dependency::on(DepKind::Environment, "Nothing", vec![]))
                .build(),
        )
        .unwrap();
        let mut spec = good_spec();
        for id in ["n1", "n2"] {
            let mut n = ResourceInstance::new(id, "Needy 1.0");
            n.set_inside_link("server");
            spec.push(n).unwrap();
        }
        let errs = check_install_spec(&u, &spec).unwrap_err();
        let referrers: Vec<&str> = errs
            .iter()
            .filter_map(|e| match e {
                ModelError::EmptyFrontier { referenced_by, .. } => Some(referenced_by.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(referrers, ["instance `n1`", "instance `n2`"], "{errs:?}");
    }

    #[test]
    fn abstract_instantiation_reported() {
        let u = universe();
        let mut spec = InstallSpec::new();
        spec.push(ResourceInstance::new("s", "Server")).unwrap();
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::AbstractInstantiation { .. })));
    }

    #[test]
    fn wrong_port_type_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"db".into())
            .unwrap()
            .set_config("port", Value::from("not-a-number"));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("not of type")));
    }

    #[test]
    fn undeclared_port_value_reported() {
        let u = universe();
        let mut spec = good_spec();
        spec.get_mut(&"db".into())
            .unwrap()
            .set_config("bogus", Value::from(1i64));
        let errs = check_install_spec(&u, &spec).unwrap_err();
        assert!(errs.iter().any(|e| e.to_string().contains("undeclared")));
    }

    #[test]
    fn topological_order_respects_links() {
        let spec = good_spec();
        let order = topological_order(&spec).unwrap();
        let pos = |id: &str| order.iter().position(|x| x.as_str() == id).unwrap();
        assert!(pos("server") < pos("db"));
        assert!(pos("db") < pos("app"));
    }

    #[test]
    fn topological_order_rejects_cycles() {
        let mut spec = InstallSpec::new();
        let mut a = ResourceInstance::new("a", "A 1");
        a.add_peer_link("b");
        let mut b = ResourceInstance::new("b", "B 1");
        b.add_peer_link("a");
        spec.push(a).unwrap();
        spec.push(b).unwrap();
        assert_eq!(topological_order(&spec), None);
    }
}
