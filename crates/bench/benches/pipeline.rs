//! Criterion benches for the evaluation pipeline: synthetic response
//! generation, netlist JSON writing, every layer of the response front
//! end (payload extraction, JSON parsing, schema, validation,
//! canonicalization, elaboration), response evaluation (pass and fail
//! paths) and Pass@k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use picbench_core::{pass_at_k, Evaluator};
use picbench_netlist::extract::extract_payload;
use picbench_netlist::{json, validate, FailureType, Netlist, PortRef, ValidationIssue};
use picbench_prompt::{
    render_system_prompt, syntax_feedback, Conversation, Role, SystemPromptConfig,
};
use picbench_sim::{Circuit, ModelRegistry};
use picbench_synthllm::{LanguageModel, ModelProfile, SyntheticLlm, PAPER_SEED};

/// The netlist writer (`direct`, what production runs) beside the
/// `Value`-tree path it replaced, which stays as the test oracle.
fn json_writing(c: &mut Criterion) {
    let mut group = c.benchmark_group("to_json");
    let golden = picbench_problems::find("spanke-8x8")
        .expect("problem exists")
        .golden;
    group.bench_with_input(BenchmarkId::new("direct", "spanke-8x8"), &golden, |b, n| {
        b.iter(|| n.to_json_string());
    });
    group.bench_with_input(BenchmarkId::new("value", "spanke-8x8"), &golden, |b, n| {
        b.iter(|| json::to_string_pretty(&n.to_value()));
    });
    group.finish();
}

/// One synthetic model answering on spanke-8x8: `initial` is a fresh
/// sample's first answer; `feedback` is that answer plus the answer to a
/// correction request naming every mistake category, so the feedback
/// turn alone costs the difference.
fn synthetic_responses(c: &mut Criterion) {
    let mut group = c.benchmark_group("respond");
    let problem = picbench_problems::find("spanke-8x8").expect("problem exists");
    let models = picbench_sparams::builtin_models();
    let system = render_system_prompt(
        models.iter().map(|m| m.info()),
        SystemPromptConfig::default(),
    );
    let mut initial = Conversation::with_system(system);
    initial.push(Role::User, problem.description.clone());
    let issues: Vec<ValidationIssue> = FailureType::ALL
        .into_iter()
        .map(|f| ValidationIssue::new(f, "details"))
        .collect();
    let mut correction = initial.clone();
    correction.push(Role::Assistant, problem.golden.to_json_string());
    correction.push(Role::User, syntax_feedback(&problem.id, &issues));

    let mut llm = SyntheticLlm::new(ModelProfile::gpt4(), PAPER_SEED);
    let mut sample = 0u64;
    group.bench_function(BenchmarkId::new("initial", "spanke-8x8"), |b| {
        b.iter(|| {
            sample = (sample + 1) % 64;
            llm.begin_sample(&problem, sample);
            llm.respond(&initial)
        });
    });
    group.bench_function(BenchmarkId::new("feedback", "spanke-8x8"), |b| {
        b.iter(|| {
            sample = (sample + 1) % 64;
            llm.begin_sample(&problem, sample);
            llm.respond(&initial);
            llm.respond(&correction)
        });
    });
    group.finish();
}

/// Locating the JSON payload in the spanke-8x8 golden answer, wrapped in
/// `<analysis>` and `<result>` sections as a model writes it.
fn extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract");
    let problem = picbench_problems::find("spanke-8x8").expect("problem exists");
    let response = format!(
        "<analysis>\n{}\n</analysis>\n<result>\n{}\n</result>",
        problem.description,
        problem.golden.to_json_string()
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("spanke-8x8"),
        &response,
        |b, response| {
            b.iter(|| extract_payload(response).unwrap());
        },
    );
    group.finish();
}

fn json_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");
    for id in ["mzi-ps", "spanke-8x8"] {
        let problem = picbench_problems::find(id).expect("problem exists");
        let text = problem.golden.to_json_string();
        group.bench_with_input(
            BenchmarkId::new("parse", format!("{id}-{}B", text.len())),
            &text,
            |b, text| {
                b.iter(|| json::parse(text).unwrap());
            },
        );
        group.bench_with_input(BenchmarkId::new("netlist", id), &text, |b, text| {
            b.iter(|| Netlist::from_json_str(text).unwrap());
        });
    }
    group.finish();
}

fn validation(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let mut group = c.benchmark_group("validate");
    for id in ["mzi-ps", "clements-8x8", "spanke-8x8"] {
        let problem = picbench_problems::find(id).expect("problem exists");
        group.bench_with_input(
            BenchmarkId::new("table-ii-rules", id),
            &problem,
            |b, problem| {
                b.iter(|| validate(&problem.golden, &registry, Some(&problem.spec)));
            },
        );
    }
    group.finish();
}

/// The content hash and canonical form of the largest golden design.
fn canonicalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon");
    let golden = picbench_problems::find("spanke-8x8")
        .expect("problem exists")
        .golden;
    group.bench_with_input(
        BenchmarkId::from_parameter("spanke-8x8"),
        &golden,
        |b, n| {
            b.iter(|| (n.content_hash(), n.canonicalize()));
        },
    );
    group.finish();
}

/// Validation plus resolution into a simulatable circuit.
fn elaboration(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let mut group = c.benchmark_group("elaborate");
    let problem = picbench_problems::find("spanke-8x8").expect("problem exists");
    group.bench_with_input(
        BenchmarkId::from_parameter("spanke-8x8"),
        &problem,
        |b, problem| {
            b.iter(|| Circuit::elaborate(&problem.golden, &registry, Some(&problem.spec)).unwrap());
        },
    );
    group.finish();
}

fn response_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate-response");
    group.sample_size(20);
    let problem = picbench_problems::find("mzi-ps").expect("problem exists");

    // Pass path: full simulation + golden comparison.
    let pass_text = format!("<result>\n{}\n</result>", problem.golden.to_json_string());
    group.bench_function("mzi-ps-pass", |b| {
        let mut evaluator = Evaluator::default();
        let golden = evaluator.golden(&problem).expect("golden simulates");
        b.iter(|| {
            let report = evaluator.evaluate_response(&problem, &golden, &pass_text);
            assert!(report.functional_pass());
        });
    });

    // Fail path: validation short-circuits before simulation.
    let mut broken = problem.golden.clone();
    broken.connections[1].b = PortRef::new("mmi2", "I2");
    let fail_text = format!("<result>\n{}\n</result>", broken.to_json_string());
    group.bench_function("mzi-ps-wrong-port", |b| {
        let mut evaluator = Evaluator::default();
        let golden = evaluator.golden(&problem).expect("golden simulates");
        b.iter(|| {
            let report = evaluator.evaluate_response(&problem, &golden, &fail_text);
            assert!(!report.syntax_pass());
        });
    });
    group.finish();
}

fn pass_at_k_bench(c: &mut Criterion) {
    c.bench_function("pass-at-k-sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for n in 1..=50usize {
                for c in 0..=n {
                    acc += pass_at_k(n, c, 1.max(n / 2));
                }
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    json_writing,
    synthetic_responses,
    extraction,
    json_parsing,
    validation,
    canonicalization,
    elaboration,
    response_evaluation,
    pass_at_k_bench
);
criterion_main!(benches);
