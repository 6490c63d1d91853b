//! The paper's "dummy scheduler": trigger-driven task eviction from a static
//! configuration.
//!
//! Section III-B: *"We factor out the role of task eviction policies
//! implemented by the scheduler […] by building a new scheduling component for
//! Hadoop — a dummy scheduler — which dictates task eviction according to
//! static configuration files. This allows to specify, using a series of
//! simple triggers, which jobs/tasks are run in the cluster and which are
//! preempted. In addition to executing jobs and preempting tasks with our
//! suspend/resume primitives, the dummy scheduler also allows using the kill
//! primitive and to wait, for the purpose of a comparative analysis."*
//!
//! The scheduler is a thin layer over the engine's priority FIFO launcher:
//!
//! * **triggers** fire when a watched task first reaches a progress fraction
//!   (delivered exactly via [`mrp_engine::Cluster::add_progress_trigger`]);
//!   each trigger can submit new jobs and preempt the tasks of existing jobs
//!   with the configured [`PreemptionPrimitive`];
//! * **restore rules** give slots back when a job completes: suspended tasks
//!   are resumed (suspend/resume primitive), killed tasks are already pending
//!   and get relaunched by the FIFO layer.
//!
//! Trigger plans can also be loaded from JSON files, mirroring the paper's
//! static configuration files.

use crate::eviction::EvictionPolicy;
use crate::json::{Json, JsonError};
use crate::pipeline::Evictor;
use crate::primitive::PreemptionPrimitive;
use mrp_engine::{
    FifoScheduler, JobSpec, MapInput, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy,
    TaskId, TaskProfile,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::RangeBounds;

/// One trigger of the dummy scheduler's static plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct TriggerRule {
    /// Name of the job whose task is watched (e.g. `tl`).
    pub(crate) watch_job: String,
    /// Index of the watched map task within that job.
    pub(crate) watch_task: u32,
    /// Progress fraction at which the trigger fires (the paper's `r`).
    pub(crate) fraction: f64,
    /// Jobs to submit when the trigger fires (e.g. `th`).
    #[serde(default)]
    pub(crate) submit: Vec<JobSpec>,
    /// Names of jobs whose running tasks are preempted when the trigger fires.
    #[serde(default)]
    pub(crate) preempt_jobs: Vec<String>,
    /// Maximum number of tasks to preempt per job (`None` = all running).
    #[serde(default)]
    pub(crate) max_victims: Option<usize>,
}

/// A restore rule: when `when_job_completes` finishes, give slots back to the
/// previously preempted jobs listed in `restore_jobs`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct RestoreRule {
    /// Job whose completion triggers the restore (e.g. `th`).
    pub(crate) when_job_completes: String,
    /// Jobs whose suspended tasks should be resumed (e.g. `tl`).
    pub(crate) restore_jobs: Vec<String>,
}

/// The full static plan: primitive, eviction policy, triggers and restores.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DummyPlan {
    /// Which preemption primitive the plan uses.
    pub(crate) primitive: PreemptionPrimitive,
    /// Which tasks to evict first when a trigger preempts a job.
    pub(crate) eviction: EvictionPolicy,
    /// The trigger rules.
    #[serde(default)]
    pub(crate) triggers: Vec<TriggerRule>,
    /// The restore rules.
    #[serde(default)]
    pub(crate) restores: Vec<RestoreRule>,
}

impl DummyPlan {
    /// The paper's two-job scenario: when map 0 of `low_job` reaches
    /// `fraction`, submit `high_spec` and preempt `low_job` with `primitive`;
    /// when `high_spec` completes, restore `low_job`.
    pub fn paper_scenario(
        primitive: PreemptionPrimitive,
        low_job: &str,
        high_spec: JobSpec,
        fraction: f64,
    ) -> Self {
        let high_name = high_spec.name.clone();
        DummyPlan {
            primitive,
            eviction: EvictionPolicy::ClosestToCompletion,
            triggers: vec![TriggerRule {
                watch_job: low_job.to_string(),
                watch_task: 0,
                fraction,
                submit: vec![high_spec],
                preempt_jobs: vec![low_job.to_string()],
                max_victims: None,
            }],
            restores: vec![RestoreRule {
                when_job_completes: high_name,
                restore_jobs: vec![low_job.to_string()],
            }],
        }
    }

    /// Serialises the plan to the JSON format used by configuration files.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            (
                "primitive",
                Json::Str(primitive_name(self.primitive).to_string()),
            ),
            (
                "eviction",
                Json::Str(eviction_name(self.eviction).to_string()),
            ),
            (
                "triggers",
                Json::Arr(self.triggers.iter().map(trigger_to_json).collect()),
            ),
            (
                "restores",
                Json::Arr(self.restores.iter().map(restore_to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Parses a plan from JSON.
    pub fn from_json(json: &str) -> Result<Self, PlanJsonError> {
        let root = Json::parse(json)?;
        Ok(DummyPlan {
            primitive: parse_primitive(str_field(&root, "primitive")?)?,
            eviction: parse_eviction(str_field(&root, "eviction")?)?,
            triggers: arr_field(&root, "triggers")?
                .iter()
                .map(trigger_from_json)
                .collect::<Result<_, _>>()?,
            restores: arr_field(&root, "restores")?
                .iter()
                .map(restore_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Error from reading a plan configuration file.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanJsonError {
    /// The document is not valid JSON.
    Syntax(JsonError),
    /// The document is JSON but does not describe a valid plan.
    Invalid(String),
}

impl fmt::Display for PlanJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanJsonError::Syntax(e) => write!(f, "invalid plan JSON: {e}"),
            PlanJsonError::Invalid(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for PlanJsonError {}

impl From<JsonError> for PlanJsonError {
    fn from(e: JsonError) -> Self {
        PlanJsonError::Syntax(e)
    }
}

fn invalid(msg: impl Into<String>) -> PlanJsonError {
    PlanJsonError::Invalid(msg.into())
}

fn str_field<'j>(obj: &'j Json, key: &str) -> Result<&'j str, PlanJsonError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(format!("missing string field '{key}'")))
}

fn num_field(obj: &Json, key: &str) -> Result<f64, PlanJsonError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| invalid(format!("missing numeric field '{key}'")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, PlanJsonError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| invalid(format!("missing integer field '{key}'")))
}

/// An optional field: absent or `null` is `None`; any other value must
/// parse, never silently turning into `None`.
fn opt_field<T>(
    obj: &Json,
    key: &str,
    parse: fn(&Json, &str) -> Result<T, PlanJsonError>,
) -> Result<Option<T>, PlanJsonError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => parse(obj, key).map(Some),
    }
}

/// A numeric field that must lie in `range`.
fn ranged_field(obj: &Json, key: &str, range: impl RangeBounds<f64>) -> Result<f64, PlanJsonError> {
    let n = num_field(obj, key)?;
    if !range.contains(&n) {
        return Err(invalid(format!("field '{key}' is out of range: {n}")));
    }
    Ok(n)
}

/// An integer field of type `T`: fractions and values outside `T`'s range
/// are errors, never truncated.
fn int_field<T: TryFrom<i64>>(obj: &Json, key: &str) -> Result<T, PlanJsonError> {
    let n = num_field(obj, key)?;
    // `as` saturates, so values beyond i64 also fail the `try_from`.
    (n.fract() == 0.0)
        .then(|| T::try_from(n as i64).ok())
        .flatten()
        .ok_or_else(|| invalid(format!("field '{key}' is not an integer in range: {n}")))
}

/// Missing array fields default to empty, mirroring `#[serde(default)]`.
fn arr_field<'j>(obj: &'j Json, key: &str) -> Result<&'j [Json], PlanJsonError> {
    match obj.get(key) {
        None => Ok(&[]),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| invalid(format!("field '{key}' must be an array"))),
    }
}

fn primitive_name(p: PreemptionPrimitive) -> &'static str {
    match p {
        PreemptionPrimitive::Wait => "Wait",
        PreemptionPrimitive::Kill => "Kill",
        PreemptionPrimitive::SuspendResume => "SuspendResume",
        PreemptionPrimitive::NatjamCheckpoint => "NatjamCheckpoint",
    }
}

fn parse_primitive(name: &str) -> Result<PreemptionPrimitive, PlanJsonError> {
    match name {
        "Wait" => Ok(PreemptionPrimitive::Wait),
        "Kill" => Ok(PreemptionPrimitive::Kill),
        "SuspendResume" => Ok(PreemptionPrimitive::SuspendResume),
        "NatjamCheckpoint" => Ok(PreemptionPrimitive::NatjamCheckpoint),
        other => other
            .parse()
            .map_err(|_| invalid(format!("unknown primitive '{other}'"))),
    }
}

fn eviction_name(e: EvictionPolicy) -> &'static str {
    match e {
        EvictionPolicy::ClosestToCompletion => "ClosestToCompletion",
        EvictionPolicy::LeastProgress => "LeastProgress",
        EvictionPolicy::SmallestMemory => "SmallestMemory",
        EvictionPolicy::LargestMemory => "LargestMemory",
        EvictionPolicy::Random => "Random",
    }
}

fn parse_eviction(name: &str) -> Result<EvictionPolicy, PlanJsonError> {
    match name {
        "ClosestToCompletion" => Ok(EvictionPolicy::ClosestToCompletion),
        "LeastProgress" => Ok(EvictionPolicy::LeastProgress),
        "SmallestMemory" => Ok(EvictionPolicy::SmallestMemory),
        "LargestMemory" => Ok(EvictionPolicy::LargestMemory),
        "Random" => Ok(EvictionPolicy::Random),
        other => Err(invalid(format!("unknown eviction policy '{other}'"))),
    }
}

fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(n) => Json::Num(n),
        None => Json::Null,
    }
}

fn profile_to_json(p: &TaskProfile) -> Json {
    Json::obj(vec![
        (
            "parse_rate_bytes_per_sec",
            opt_num(p.parse_rate_bytes_per_sec),
        ),
        ("state_memory", Json::Num(p.state_memory as f64)),
        ("state_dirty_fraction", Json::Num(p.state_dirty_fraction)),
        ("output_ratio", opt_num(p.output_ratio)),
    ])
}

fn profile_from_json(v: &Json) -> Result<TaskProfile, PlanJsonError> {
    let non_negative = |v: &Json, key: &str| ranged_field(v, key, 0.0..);
    Ok(TaskProfile {
        parse_rate_bytes_per_sec: opt_field(v, "parse_rate_bytes_per_sec", non_negative)?,
        state_memory: u64_field(v, "state_memory")?,
        state_dirty_fraction: num_field(v, "state_dirty_fraction")?,
        output_ratio: opt_field(v, "output_ratio", non_negative)?,
    })
}

fn input_to_json(input: &MapInput) -> Json {
    match input {
        MapInput::DfsFile { path } => Json::obj(vec![(
            "DfsFile",
            Json::obj(vec![("path", Json::Str(path.clone()))]),
        )]),
        MapInput::Synthetic {
            tasks,
            bytes_per_task,
        } => Json::obj(vec![(
            "Synthetic",
            Json::obj(vec![
                ("tasks", Json::Num(f64::from(*tasks))),
                ("bytes_per_task", Json::Num(*bytes_per_task as f64)),
            ]),
        )]),
    }
}

fn input_from_json(v: &Json) -> Result<MapInput, PlanJsonError> {
    if let Some(dfs) = v.get("DfsFile") {
        return Ok(MapInput::DfsFile {
            path: str_field(dfs, "path")?.to_string(),
        });
    }
    if let Some(synth) = v.get("Synthetic") {
        return Ok(MapInput::Synthetic {
            tasks: int_field(synth, "tasks")?,
            bytes_per_task: u64_field(synth, "bytes_per_task")?,
        });
    }
    Err(invalid("map input must be 'DfsFile' or 'Synthetic'"))
}

fn spec_to_json(spec: &JobSpec) -> Json {
    let mut fields = vec![
        ("name", Json::Str(spec.name.clone())),
        ("priority", Json::Num(f64::from(spec.priority))),
        ("input", input_to_json(&spec.input)),
        ("reduce_tasks", Json::Num(f64::from(spec.reduce_tasks))),
        ("profile", profile_to_json(&spec.profile)),
    ];
    // Tenant metadata is emitted only when set, so single-tenant plan files
    // round-trip byte-identically to pre-tenant ones.
    if spec.tenant != 0 {
        fields.push(("tenant", Json::Num(f64::from(spec.tenant))));
    }
    if spec.best_effort {
        fields.push(("best_effort", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// A job spec, held to the checks job submission makes.
fn spec_from_json(v: &Json) -> Result<JobSpec, PlanJsonError> {
    let spec = JobSpec {
        name: str_field(v, "name")?.to_string(),
        priority: int_field(v, "priority")?,
        input: input_from_json(
            v.get("input")
                .ok_or_else(|| invalid("job spec missing 'input'"))?,
        )?,
        reduce_tasks: int_field(v, "reduce_tasks")?,
        profile: profile_from_json(
            v.get("profile")
                .ok_or_else(|| invalid("job spec missing 'profile'"))?,
        )?,
        tenant: match v.get("tenant") {
            Some(_) => int_field(v, "tenant")?,
            None => 0,
        },
        best_effort: matches!(v.get("best_effort"), Some(Json::Bool(true))),
    };
    spec.validate().map_err(invalid)?;
    Ok(spec)
}

fn trigger_to_json(rule: &TriggerRule) -> Json {
    Json::obj(vec![
        ("watch_job", Json::Str(rule.watch_job.clone())),
        ("watch_task", Json::Num(f64::from(rule.watch_task))),
        ("fraction", Json::Num(rule.fraction)),
        (
            "submit",
            Json::Arr(rule.submit.iter().map(spec_to_json).collect()),
        ),
        (
            "preempt_jobs",
            Json::Arr(
                rule.preempt_jobs
                    .iter()
                    .map(|j| Json::Str(j.clone()))
                    .collect(),
            ),
        ),
        (
            "max_victims",
            match rule.max_victims {
                Some(n) => Json::Num(n as f64),
                None => Json::Null,
            },
        ),
    ])
}

fn trigger_from_json(v: &Json) -> Result<TriggerRule, PlanJsonError> {
    Ok(TriggerRule {
        watch_job: str_field(v, "watch_job")?.to_string(),
        watch_task: int_field(v, "watch_task")?,
        fraction: ranged_field(v, "fraction", 0.0..=1.0)?,
        submit: arr_field(v, "submit")?
            .iter()
            .map(spec_from_json)
            .collect::<Result<_, _>>()?,
        preempt_jobs: arr_field(v, "preempt_jobs")?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| invalid("preempt_jobs entries must be strings"))
            })
            .collect::<Result<_, _>>()?,
        max_victims: opt_field(v, "max_victims", int_field::<usize>)?,
    })
}

fn restore_to_json(rule: &RestoreRule) -> Json {
    Json::obj(vec![
        (
            "when_job_completes",
            Json::Str(rule.when_job_completes.clone()),
        ),
        (
            "restore_jobs",
            Json::Arr(
                rule.restore_jobs
                    .iter()
                    .map(|j| Json::Str(j.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn restore_from_json(v: &Json) -> Result<RestoreRule, PlanJsonError> {
    Ok(RestoreRule {
        when_job_completes: str_field(v, "when_job_completes")?.to_string(),
        restore_jobs: arr_field(v, "restore_jobs")?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| invalid("restore_jobs entries must be strings"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// The dummy scheduler itself.
pub struct DummyScheduler {
    plan: DummyPlan,
    launcher: FifoScheduler,
    evictor: Evictor,
}

impl DummyScheduler {
    /// Creates a dummy scheduler from a static plan.
    pub fn new(plan: DummyPlan) -> Self {
        DummyScheduler {
            evictor: Evictor::new(plan.primitive, plan.eviction, 0x0D_D0),
            plan,
            // The dummy scheduler controls resumption explicitly through its
            // restore rules, so the underlying launcher must not resume
            // suspended tasks on its own.
            launcher: FifoScheduler::non_resuming(),
        }
    }

    /// The progress triggers the cluster must register (job name, task index,
    /// fraction) for this plan to work; convenience for experiment harnesses:
    ///
    /// ```ignore
    /// for (job, task, fraction) in scheduler.required_triggers() {
    ///     cluster.add_progress_trigger(&job, task, fraction);
    /// }
    /// ```
    pub fn required_triggers(&self) -> Vec<(String, u32, f64)> {
        self.plan
            .triggers
            .iter()
            .map(|t| (t.watch_job.clone(), t.watch_task, t.fraction))
            .collect()
    }

    fn job_id_by_name(ctx: &SchedulerContext<'_>, name: &str) -> Option<mrp_engine::JobId> {
        ctx.jobs
            .values()
            .find(|j| j.spec.name == name)
            .map(|j| j.id)
    }

    fn preempt_job(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job_name: &str,
        max_victims: Option<usize>,
    ) -> Vec<SchedulerAction> {
        let Some(job_id) = Self::job_id_by_name(ctx, job_name) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let take = max_victims.unwrap_or(usize::MAX);
        self.evictor.evict_from(ctx, job_id, take, &mut out);
        out
    }

    fn restore_job(&self, ctx: &SchedulerContext<'_>, job_name: &str) -> Vec<SchedulerAction> {
        let Some(job_id) = Self::job_id_by_name(ctx, job_name) else {
            return Vec::new();
        };
        ctx.jobs[&job_id]
            .tasks
            .iter()
            .filter_map(|t| self.plan.primitive.restore_action(t.id, t.state))
            .collect()
    }
}

impl SchedulerPolicy for DummyScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        self.launcher.on_heartbeat(ctx, node)
    }

    fn on_progress_trigger(
        &mut self,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
        fraction: f64,
    ) -> Vec<SchedulerAction> {
        let Some(job) = ctx.jobs.get(&task.job) else {
            return Vec::new();
        };
        let job_name = job.spec.name.clone();
        let matching: Vec<TriggerRule> = self
            .plan
            .triggers
            .iter()
            .filter(|r| {
                r.watch_job == job_name
                    && r.watch_task == task.index
                    && (r.fraction - fraction).abs() < 1e-9
            })
            .cloned()
            .collect();
        let mut actions = Vec::new();
        for rule in matching {
            for spec in &rule.submit {
                actions.push(SchedulerAction::SubmitJob(spec.clone()));
            }
            for victim_job in &rule.preempt_jobs {
                actions.extend(self.preempt_job(ctx, victim_job, rule.max_victims));
            }
        }
        actions
    }

    fn on_job_finished(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: mrp_engine::JobId,
    ) -> Vec<SchedulerAction> {
        let mut actions = self.launcher.on_job_finished(ctx, job);
        let Some(finished) = ctx.jobs.get(&job) else {
            return actions;
        };
        let name = finished.spec.name.clone();
        let restores: Vec<RestoreRule> = self
            .plan
            .restores
            .iter()
            .filter(|r| r.when_job_completes == name)
            .cloned()
            .collect();
        for rule in restores {
            for job_name in &rule.restore_jobs {
                actions.extend(self.restore_job(ctx, job_name));
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "dummy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, TaskProfile};
    use mrp_sim::{SimTime, MIB};

    fn lightweight_scenario(
        primitive: PreemptionPrimitive,
        fraction: f64,
    ) -> mrp_engine::ClusterReport {
        let high = JobSpec::map_only("th", "/input-high").with_priority(10);
        let plan = DummyPlan::paper_scenario(primitive, "tl", high, fraction);
        let scheduler = DummyScheduler::new(plan);
        let triggers = scheduler.required_triggers();
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.create_input_file("/input-low", 512 * MIB).unwrap();
        cluster.create_input_file("/input-high", 512 * MIB).unwrap();
        for (job, task, fraction) in triggers {
            cluster.add_progress_trigger(&job, task, fraction);
        }
        cluster.submit_job(JobSpec::map_only("tl", "/input-low").with_priority(0));
        cluster.run(SimTime::from_secs(4 * 3_600));
        cluster.report()
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = DummyPlan::paper_scenario(
            PreemptionPrimitive::SuspendResume,
            "tl",
            JobSpec::synthetic("th", 1, 512 * MIB).with_priority(10),
            0.5,
        );
        let json = plan.to_json();
        let back = DummyPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert!(json.contains("SuspendResume"));
        assert!(DummyPlan::from_json("{not json").is_err());
    }

    /// Replaces the first `from` in a tenant-tagged plan's JSON with `to`
    /// and parses the result.
    fn parse_edited(from: &str, to: &str) -> Result<DummyPlan, PlanJsonError> {
        let high = JobSpec::synthetic("th", 1, 512 * MIB)
            .with_priority(10)
            .with_tenant(2)
            .with_reduces(1);
        let json = DummyPlan::paper_scenario(PreemptionPrimitive::Kill, "tl", high, 0.5).to_json();
        assert!(json.contains(from), "{from} not in {json}");
        DummyPlan::from_json(&json.replacen(from, to, 1))
    }

    fn assert_rejected(from: &str, to: &str) {
        let result = parse_edited(from, to);
        assert!(
            matches!(result, Err(PlanJsonError::Invalid(_))),
            "{to} must be rejected, got {result:?}"
        );
    }

    #[test]
    fn out_of_range_task_count_is_rejected() {
        assert!(parse_edited("\"tasks\": 1", "\"tasks\": 4294967295").is_ok());
        assert_rejected("\"tasks\": 1", "\"tasks\": 4294967297");
    }

    #[test]
    fn out_of_range_reduce_count_is_rejected() {
        assert_rejected("\"reduce_tasks\": 1", "\"reduce_tasks\": 4294967297");
    }

    #[test]
    fn out_of_range_watch_task_is_rejected() {
        assert_rejected("\"watch_task\": 0", "\"watch_task\": 4294967296");
    }

    #[test]
    fn fractional_or_huge_priority_is_rejected() {
        assert!(parse_edited("\"priority\": 10", "\"priority\": -7").is_ok());
        assert_rejected("\"priority\": 10", "\"priority\": 1.5");
        assert_rejected("\"priority\": 10", "\"priority\": 1e12");
    }

    #[test]
    fn negative_or_fractional_tenant_is_rejected() {
        assert_eq!(
            parse_edited("\"tenant\": 2", "\"tenant\": 3")
                .unwrap()
                .triggers[0]
                .submit[0]
                .tenant,
            3
        );
        assert_rejected("\"tenant\": 2", "\"tenant\": -3");
        assert_rejected("\"tenant\": 2", "\"tenant\": 0.5");
    }

    #[test]
    fn trigger_fraction_outside_the_unit_interval_is_rejected() {
        assert!(parse_edited("\"fraction\": 0.5", "\"fraction\": 1").is_ok());
        assert_rejected("\"fraction\": 0.5", "\"fraction\": 1.5");
        assert_rejected("\"fraction\": 0.5", "\"fraction\": -0.1");
    }

    #[test]
    fn a_submitted_spec_job_submission_would_refuse_is_rejected() {
        let dirty = "\"state_dirty_fraction\": 1";
        assert!(parse_edited(dirty, "\"state_dirty_fraction\": 0.25").is_ok());
        assert_rejected(dirty, "\"state_dirty_fraction\": 1.5");
    }

    #[test]
    fn optional_numbers_are_absent_null_or_valid() {
        let victims = "\"max_victims\": null";
        let plan = parse_edited(victims, "\"max_victims\": 2").unwrap();
        assert_eq!(plan.triggers[0].max_victims, Some(2));
        assert_eq!(
            parse_edited(victims, "\"absent\": null").unwrap().triggers[0].max_victims,
            None
        );
        for bad in ["-1", "1.5", "\"all\""] {
            assert_rejected(victims, &format!("\"max_victims\": {bad}"));
        }
        for key in ["parse_rate_bytes_per_sec", "output_ratio"] {
            let field = format!("\"{key}\": null");
            assert!(parse_edited(&field, &format!("\"{key}\": 0.5")).is_ok());
            for bad in ["-0.5", "\"fast\"", "true"] {
                assert_rejected(&field, &format!("\"{key}\": {bad}"));
            }
        }
    }

    #[test]
    fn suspend_scenario_completes_and_preserves_work() {
        let report = lightweight_scenario(PreemptionPrimitive::SuspendResume, 0.5);
        assert!(report.all_jobs_complete());
        let tl = report.job("tl").unwrap();
        assert_eq!(
            tl.tasks[0].suspend_cycles, 1,
            "tl must be suspended exactly once"
        );
        assert_eq!(
            tl.tasks[0].attempts, 1,
            "suspend/resume keeps the same attempt"
        );
        assert_eq!(
            tl.wasted_work_secs(),
            0.0,
            "no work is wasted by suspension"
        );
        let th = report.job("th").unwrap();
        assert!(th.sojourn_secs.unwrap() < 100.0, "th must not wait for tl");
    }

    #[test]
    fn kill_scenario_wastes_work() {
        let report = lightweight_scenario(PreemptionPrimitive::Kill, 0.5);
        assert!(report.all_jobs_complete());
        let tl = report.job("tl").unwrap();
        assert_eq!(
            tl.tasks[0].attempts, 2,
            "the killed task restarts from scratch"
        );
        assert!(tl.wasted_work_secs() > 20.0, "about half the work is lost");
        let th = report.job("th").unwrap();
        assert!(th.sojourn_secs.unwrap() < 110.0);
    }

    #[test]
    fn wait_scenario_delays_the_high_priority_job() {
        let report = lightweight_scenario(PreemptionPrimitive::Wait, 0.5);
        assert!(report.all_jobs_complete());
        let tl = report.job("tl").unwrap();
        assert_eq!(tl.tasks[0].suspend_cycles, 0);
        assert_eq!(tl.tasks[0].attempts, 1);
        let th = report.job("th").unwrap();
        assert!(
            th.sojourn_secs.unwrap() > 110.0,
            "th has to wait ~half of tl plus its own runtime"
        );
    }

    #[test]
    fn sojourn_ordering_matches_the_paper() {
        let susp = lightweight_scenario(PreemptionPrimitive::SuspendResume, 0.5);
        let kill = lightweight_scenario(PreemptionPrimitive::Kill, 0.5);
        let wait = lightweight_scenario(PreemptionPrimitive::Wait, 0.5);
        let s = susp.sojourn_secs("th").unwrap();
        let k = kill.sojourn_secs("th").unwrap();
        let w = wait.sojourn_secs("th").unwrap();
        assert!(s <= k, "suspend sojourn ({s}) should not exceed kill ({k})");
        assert!(k < w, "kill sojourn ({k}) must beat wait ({w})");

        let ms = susp.makespan_secs().unwrap();
        let mk = kill.makespan_secs().unwrap();
        let mw = wait.makespan_secs().unwrap();
        assert!(mw <= ms + 5.0, "wait has (near-)optimal makespan");
        assert!(ms < mk, "suspend makespan ({ms}) must beat kill ({mk})");
    }

    #[test]
    fn memory_hungry_scenario_pages_and_still_completes() {
        let high = JobSpec::map_only("th", "/input-high")
            .with_priority(10)
            .with_profile(TaskProfile::memory_hungry(2048 * MIB));
        let plan = DummyPlan::paper_scenario(PreemptionPrimitive::SuspendResume, "tl", high, 0.5);
        let scheduler = DummyScheduler::new(plan);
        let triggers = scheduler.required_triggers();
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.create_input_file("/input-low", 512 * MIB).unwrap();
        cluster.create_input_file("/input-high", 512 * MIB).unwrap();
        for (job, task, fraction) in triggers {
            cluster.add_progress_trigger(&job, task, fraction);
        }
        cluster.submit_job(
            JobSpec::map_only("tl", "/input-low")
                .with_priority(0)
                .with_profile(TaskProfile::memory_hungry(2048 * MIB)),
        );
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert!(
            report.total_swap_out_bytes() > 0,
            "2 GB + 2 GB on a 4 GB node must page"
        );
        let tl = report.job("tl").unwrap();
        assert!(
            tl.tasks[0].paged_out_bytes > 0,
            "the suspended task is the paging victim"
        );
    }

    #[test]
    fn empty_plan_behaves_like_fifo() {
        let scheduler = DummyScheduler::new(DummyPlan {
            primitive: PreemptionPrimitive::SuspendResume,
            eviction: EvictionPolicy::ClosestToCompletion,
            triggers: Vec::new(),
            restores: Vec::new(),
        });
        assert!(scheduler.required_triggers().is_empty());
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.create_input_file("/a", 256 * MIB).unwrap();
        cluster.submit_job(JobSpec::map_only("only", "/a"));
        cluster.run(SimTime::from_secs(3_600));
        assert!(cluster.report().all_jobs_complete());
    }
}
