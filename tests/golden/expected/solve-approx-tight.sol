{"first_stage": [1], "second_stage": [[], [], []], "value": "1"}
