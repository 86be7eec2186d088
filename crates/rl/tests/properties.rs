//! Property-based tests of the RL components: GAE algebra and policy
//! distribution invariants for arbitrary rollouts.

use proptest::prelude::*;

use graphrare_rl::{gae, normalize, Mlp, PpoAgent, PpoConfig, ACTION_ARITY};
use graphrare_tensor::{Matrix, Tape};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With γ = λ = 1 and no terminals, the advantage telescopes to
    /// `Σ rewards + bootstrap − V(s_t)`.
    #[test]
    fn gae_telescopes_at_gamma_lambda_one(
        rewards in proptest::collection::vec(-2.0f32..2.0, 1..12),
        values in proptest::collection::vec(-2.0f32..2.0, 1..12),
        last in -2.0f32..2.0,
    ) {
        let n = rewards.len().min(values.len());
        let rewards = &rewards[..n];
        let values = &values[..n];
        let dones = vec![false; n];
        let (adv, ret) = gae(rewards, values, &dones, last, 1.0, 1.0);
        for t in 0..n {
            let tail: f32 = rewards[t..].iter().sum::<f32>() + last;
            prop_assert!((adv[t] - (tail - values[t])).abs() < 1e-3,
                "t={t}: adv {} vs telescoped {}", adv[t], tail - values[t]);
            prop_assert!((ret[t] - (adv[t] + values[t])).abs() < 1e-5);
        }
    }

    /// Terminal flags cut the credit assignment: everything after a done
    /// has no influence on advantages before it.
    #[test]
    fn gae_respects_episode_boundaries(
        prefix in proptest::collection::vec(-1.0f32..1.0, 1..6),
        suffix_a in proptest::collection::vec(-1.0f32..1.0, 1..6),
        suffix_b in proptest::collection::vec(-1.0f32..1.0, 1..6),
    ) {
        let n_pre = prefix.len();
        let make = |suffix: &[f32]| {
            let rewards: Vec<f32> = prefix.iter().chain(suffix).copied().collect();
            let values = vec![0.3f32; rewards.len()];
            let mut dones = vec![false; rewards.len()];
            dones[n_pre - 1] = true;
            gae(&rewards, &values, &dones, 0.9, 0.95, 0.9).0
        };
        let a = make(&suffix_a);
        let b = make(&suffix_b);
        for t in 0..n_pre {
            prop_assert!((a[t] - b[t]).abs() < 1e-6,
                "advantage {t} leaked across episode boundary");
        }
    }

    #[test]
    fn normalize_output_is_standardised(
        mut values in proptest::collection::vec(-100.0f32..100.0, 3..50),
    ) {
        let distinct = values.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-3);
        normalize(&mut values);
        if distinct {
            let mean: f32 = values.iter().sum::<f32>() / values.len() as f32;
            let var: f32 =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / values.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            prop_assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    /// Every head's sampled action distribution is a valid categorical:
    /// repeated sampling with the initial near-uniform policy covers all
    /// three actions.
    #[test]
    fn initial_policy_explores_every_action(seed in 0u64..500) {
        let policy = Mlp::policy(4, 16, 2, seed);
        let value = Mlp::value(4, 16, seed + 1);
        let mut agent =
            PpoAgent::new(policy, value, PpoConfig { seed, ..Default::default() });
        let state = [0.2f32, -0.1, 0.5, 0.0];
        let mut seen = [false; ACTION_ARITY];
        for _ in 0..64 {
            let (actions, logp, _) = agent.act(&state);
            prop_assert!(logp.is_finite() && logp < 0.0);
            for &a in &actions {
                seen[a as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some action never sampled: {seen:?}");
    }

    /// Policy logits are a deterministic function of the state.
    #[test]
    fn policy_logits_deterministic(
        state in proptest::collection::vec(-1.0f32..1.0, 6),
        seed in 0u64..100,
    ) {
        let policy = Mlp::policy(6, 8, 3, seed);
        let eval = |p: &Mlp| {
            let mut t = Tape::new();
            let s = t.constant(Matrix::row_vector(&state));
            let l = p.forward(&mut t, s);
            t.value(l).clone()
        };
        prop_assert_eq!(eval(&policy), eval(&policy));
    }
}
