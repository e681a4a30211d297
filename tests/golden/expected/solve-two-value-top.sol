{"first_stage": [0, 1], "second_stage": [[], [], []], "value": "7"}
